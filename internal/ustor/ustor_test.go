package ustor

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"faust/internal/crypto"
	"faust/internal/transport"
	"faust/internal/version"
	"faust/internal/wire"
)

// testCluster bundles a correct server, its network and n clients.
type testCluster struct {
	server  *Server
	network *transport.Network
	clients []*Client
}

func newCluster(t *testing.T, n int, opts ...transport.Option) *testCluster {
	t.Helper()
	ring, signers := crypto.NewTestKeyring(n, 1234)
	server := NewServer(n)
	nw := transport.NewNetwork(n, server, opts...)
	clients := make([]*Client, n)
	for i := 0; i < n; i++ {
		clients[i] = NewClient(i, ring, signers[i], nw.ClientLink(i))
	}
	t.Cleanup(nw.Stop)
	return &testCluster{server: server, network: nw, clients: clients}
}

func TestWriteThenRead(t *testing.T) {
	tc := newCluster(t, 2)
	if err := tc.clients[0].Write([]byte("u")); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := tc.clients[1].Read(0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got) != "u" {
		t.Fatalf("read = %q, want \"u\"", got)
	}
}

func TestReadUnwrittenRegisterReturnsBottom(t *testing.T) {
	tc := newCluster(t, 2)
	got, err := tc.clients[0].Read(1)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got != nil {
		t.Fatalf("read of unwritten register = %q, want bottom", got)
	}
}

func TestReadUnwrittenAfterOwnerReads(t *testing.T) {
	// The owner's MEM entry carries a nonzero timestamp after it performs
	// reads, but the register value must still be bottom.
	tc := newCluster(t, 2)
	for i := 0; i < 3; i++ {
		if _, err := tc.clients[1].Read(0); err != nil {
			t.Fatalf("owner read %d: %v", i, err)
		}
	}
	got, err := tc.clients[0].Read(1)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got != nil {
		t.Fatalf("read = %q, want bottom", got)
	}
}

func TestSelfRead(t *testing.T) {
	tc := newCluster(t, 2)
	if err := tc.clients[0].Write([]byte("mine")); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := tc.clients[0].Read(0)
	if err != nil {
		t.Fatalf("self read: %v", err)
	}
	if string(got) != "mine" {
		t.Fatalf("self read = %q", got)
	}
}

func TestOverwriteVisible(t *testing.T) {
	tc := newCluster(t, 2)
	for i := 0; i < 5; i++ {
		val := []byte(fmt.Sprintf("v%d", i))
		if err := tc.clients[0].Write(val); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got, err := tc.clients[1].Read(0)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("read %d = %q, want %q", i, got, val)
		}
	}
}

func TestTimestampsMonotonic(t *testing.T) {
	tc := newCluster(t, 2)
	var last int64
	for i := 0; i < 4; i++ {
		res, err := tc.clients[0].WriteX(context.Background(), []byte{byte(i)})
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if res.Timestamp <= last {
			t.Fatalf("timestamp %d not increasing after %d", res.Timestamp, last)
		}
		last = res.Timestamp
		rr, err := tc.clients[0].ReadX(context.Background(), 1)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if rr.Timestamp <= last {
			t.Fatalf("read timestamp %d not increasing after %d", rr.Timestamp, last)
		}
		last = rr.Timestamp
	}
}

func TestVersionsTotallyOrderedWithCorrectServer(t *testing.T) {
	tc := newCluster(t, 3)
	var versions []version.Version
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := tc.clients[c].WriteX(context.Background(), []byte{byte(c), byte(i)})
				if err != nil {
					t.Errorf("client %d write %d: %v", c, i, err)
					return
				}
				mu.Lock()
				versions = append(versions, res.Version.Ver)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	// Every pair of committed versions must be comparable: a correct
	// server induces a total order (Section 5).
	for i := range versions {
		for j := i + 1; j < len(versions); j++ {
			if !version.Comparable(versions[i], versions[j]) {
				t.Fatalf("incomparable versions from a correct server:\n%v\n%v",
					versions[i], versions[j])
			}
		}
	}
}

func TestConcurrentClientsAllComplete(t *testing.T) {
	const n, ops = 8, 25
	tc := newCluster(t, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if i%3 == 0 {
					if err := tc.clients[c].Write([]byte(fmt.Sprintf("c%d-%d", c, i))); err != nil {
						errs <- err
						return
					}
				} else {
					if _, err := tc.clients[c].Read((c + i) % n); err != nil {
						errs <- err
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("operation failed under concurrency: %v", err)
	}
}

func TestWaitFreeDespiteCrashedClient(t *testing.T) {
	// A client that submits but never commits must not block others: this
	// is precisely what separates USTOR from fork-linearizable protocols.
	n := 3
	ring, signers := crypto.NewTestKeyring(n, 99)
	server := NewServer(n)
	nw := transport.NewNetwork(n, server)
	defer nw.Stop()

	// Client 0 crashes mid-operation: SUBMIT sent, REPLY consumed, COMMIT
	// never sent.
	link0 := nw.ClientLink(0)
	xhash := crypto.Hash([]byte("w"))
	sigma := signers[0].Sign(crypto.DomainSubmit, wire.SubmitPayload(wire.OpWrite, 0, 1, xhash))
	if err := link0.Send(&wire.Submit{
		T:     1,
		Inv:   wire.Invocation{Client: 0, Op: wire.OpWrite, Reg: 0, SubmitSig: sigma, XHash: xhash},
		Value: []byte("w"),
	}); err != nil {
		t.Fatalf("crashed client submit: %v", err)
	}
	if _, err := link0.Recv(); err != nil {
		t.Fatalf("crashed client recv: %v", err)
	}
	// No COMMIT: client 0 is dead from here on.

	c1 := NewClient(1, ring, signers[1], nw.ClientLink(1))
	c2 := NewClient(2, ring, signers[2], nw.ClientLink(2))
	for i := 0; i < 10; i++ {
		if err := c1.Write([]byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatalf("c1 write %d blocked or failed: %v", i, err)
		}
		v, err := c2.Read(1)
		if err != nil {
			t.Fatalf("c2 read %d blocked or failed: %v", i, err)
		}
		if string(v) != fmt.Sprintf("a%d", i) {
			t.Fatalf("c2 read %d = %q", i, v)
		}
		// The crashed client's write must be observable too.
		w, err := c2.Read(0)
		if err != nil {
			t.Fatalf("c2 read of crashed register: %v", err)
		}
		if string(w) != "w" {
			t.Fatalf("crashed client's write lost: %q", w)
		}
	}
}

func TestServerGarbageCollectsL(t *testing.T) {
	tc := newCluster(t, 2)
	for i := 0; i < 10; i++ {
		if err := tc.clients[0].Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tc.clients[1].Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// After quiescence, COMMITs processed at the server must have pruned
	// L. One pending tuple can remain if the last COMMIT raced the check,
	// so synchronize with one more operation.
	if err := tc.clients[0].Write([]byte("sync")); err != nil {
		t.Fatal(err)
	}
	if got := tc.server.PendingOps(); got > 2 {
		t.Fatalf("L not garbage collected: %d pending tuples", got)
	}
}

func TestReadOutOfRange(t *testing.T) {
	tc := newCluster(t, 2)
	if _, err := tc.clients[0].Read(7); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if _, err := tc.clients[0].Read(-1); err == nil {
		t.Fatal("negative register read accepted")
	}
}

func TestClientAccessors(t *testing.T) {
	tc := newCluster(t, 3)
	c := tc.clients[2]
	if c.ID() != 2 || c.N() != 3 {
		t.Fatalf("ID/N = %d/%d", c.ID(), c.N())
	}
	if failed, _ := c.Failed(); failed {
		t.Fatal("fresh client reports failed")
	}
	if !c.Version().IsZero() {
		t.Fatal("fresh client version not zero")
	}
	if err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if c.Version().V[2] != 1 {
		t.Fatalf("version after one op: %v", c.Version())
	}
}

// tamperCore wraps a correct server and mutates chosen replies, modeling a
// Byzantine server. tamper returns the (possibly modified) reply; it gets
// a deep copy, since the server's replies share its copy-on-write state.
type tamperCore struct {
	inner  *Server
	mu     sync.Mutex
	tamper func(from int, r *wire.Reply) *wire.Reply
}

func (tc *tamperCore) HandleSubmit(ctx context.Context, from int, s *wire.Submit) *wire.Reply {
	r := tc.inner.HandleSubmit(ctx, from, s)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.tamper != nil && r != nil {
		return tc.tamper(from, r.Clone())
	}
	return r
}

func (tc *tamperCore) HandleCommit(ctx context.Context, from int, c *wire.Commit) {
	tc.inner.HandleCommit(ctx, from, c)
}

// tamperCluster builds a 2-client cluster whose server applies the given
// tampering function.
func tamperCluster(t *testing.T, tamper func(from int, r *wire.Reply) *wire.Reply) []*Client {
	t.Helper()
	const n = 2
	ring, signers := crypto.NewTestKeyring(n, 55)
	core := &tamperCore{inner: NewServer(n), tamper: tamper}
	nw := transport.NewNetwork(n, core)
	t.Cleanup(nw.Stop)
	clients := make([]*Client, n)
	for i := 0; i < n; i++ {
		clients[i] = NewClient(i, ring, signers[i], nw.ClientLink(i))
	}
	return clients
}

func expectDetection(t *testing.T, err error, fragment string) {
	t.Helper()
	if err == nil {
		t.Fatal("tampered reply accepted; expected detection")
	}
	var det *DetectionError
	if !errors.As(err, &det) {
		t.Fatalf("error %v is not a DetectionError", err)
	}
	if fragment != "" && !bytes.Contains([]byte(det.Check), []byte(fragment)) {
		t.Fatalf("detection %q does not mention %q", det.Check, fragment)
	}
}

func TestDetectsForgedCommitSignature(t *testing.T) {
	clients := tamperCluster(t, func(from int, r *wire.Reply) *wire.Reply {
		if !r.CVer.Ver.IsZero() {
			r.CVer.Sig[0] ^= 0xFF
		}
		return r
	})
	if err := clients[0].Write([]byte("a")); err != nil {
		t.Fatalf("first write (zero version, nothing to forge): %v", err)
	}
	err := clients[0].Write([]byte("b"))
	expectDetection(t, err, "line 35")
}

func TestDetectsVersionRollback(t *testing.T) {
	// After the client advances, the server presents the initial version
	// again: line 36 must fire.
	var rollback bool
	var mu sync.Mutex
	clients := tamperCluster(t, func(from int, r *wire.Reply) *wire.Reply {
		mu.Lock()
		defer mu.Unlock()
		if rollback {
			r.CVer = wire.ZeroSignedVersion(2)
			r.C = 0
			r.L = nil
		}
		return r
	})
	if err := clients[0].Write([]byte("a")); err != nil {
		t.Fatalf("setup write: %v", err)
	}
	mu.Lock()
	rollback = true
	mu.Unlock()
	err := clients[0].Write([]byte("b"))
	expectDetection(t, err, "line 36")
}

func TestDetectsCorruptedValue(t *testing.T) {
	clients := tamperCluster(t, func(from int, r *wire.Reply) *wire.Reply {
		if r.IsRead && r.Mem.Value != nil {
			r.Mem.Value[0] ^= 0xFF
		}
		return r
	})
	if err := clients[0].Write([]byte("secret")); err != nil {
		t.Fatalf("write: %v", err)
	}
	_, err := clients[1].Read(0)
	expectDetection(t, err, "line 50")
}

func TestDetectsStaleValueOmission(t *testing.T) {
	// The server hides client 0's write from a reader while still showing
	// the committed version: timestamps disagree (line 51).
	var hide bool
	var mu sync.Mutex
	clients := tamperCluster(t, func(from int, r *wire.Reply) *wire.Reply {
		mu.Lock()
		defer mu.Unlock()
		if hide && r.IsRead {
			r.Mem = wire.MemEntry{} // pretend the writer never submitted
			r.JVer = wire.ZeroSignedVersion(2)
		}
		return r
	})
	if err := clients[0].Write([]byte("visible")); err != nil {
		t.Fatalf("write: %v", err)
	}
	mu.Lock()
	hide = true
	mu.Unlock()
	_, err := clients[1].Read(0)
	expectDetection(t, err, "line 51")
}

func TestDetectsWriterVersionMismatch(t *testing.T) {
	// The server presents a stale MEM timestamp while SVER[j] has moved
	// on by two: line 52 must fire. Construct by letting the writer do
	// two ops, then serving Mem.T = t-2 with matching (replayed) data sig.
	var captured []wire.MemEntry
	var mu sync.Mutex
	clients := tamperCluster(t, func(from int, r *wire.Reply) *wire.Reply {
		mu.Lock()
		defer mu.Unlock()
		if r.IsRead {
			captured = append(captured, r.Mem.Clone())
			if len(captured) >= 2 {
				r.Mem = captured[0].Clone() // replay the old entry
			}
		}
		return r
	})
	if err := clients[0].Write([]byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := clients[1].Read(0); err != nil {
		t.Fatalf("first read must pass: %v", err)
	}
	if err := clients[0].Write([]byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := clients[0].Write([]byte("v3")); err != nil {
		t.Fatal(err)
	}
	_, err := clients[1].Read(0)
	expectDetection(t, err, "line 51")
}

func TestDetectsOwnTupleInL(t *testing.T) {
	clients := tamperCluster(t, func(from int, r *wire.Reply) *wire.Reply {
		// Echo the submitting client's own (valid!) tuple back in L.
		sigma := make([]byte, 64)
		r.L = append(r.L, wire.Invocation{Client: from, Op: wire.OpWrite, Reg: from, SubmitSig: sigma})
		return r
	})
	err := clients[0].Write([]byte("a"))
	expectDetection(t, err, "")
}

func TestDetectsForgedSubmitSignatureInL(t *testing.T) {
	clients := tamperCluster(t, func(from int, r *wire.Reply) *wire.Reply {
		if from == 1 {
			r.L = append(r.L, wire.Invocation{
				Client: 0, Op: wire.OpWrite, Reg: 0,
				SubmitSig: bytes.Repeat([]byte{1}, 64),
			})
		}
		return r
	})
	err := clients[1].Write([]byte("b"))
	expectDetection(t, err, "line 43")
}

func TestDetectsMissingProofSignature(t *testing.T) {
	// A second tuple for a client whose digest entry is already set needs
	// a valid proof that C_k committed its previous operation (P[k]'s
	// COMMIT-signature); the server presents none.
	var inject bool
	var mu sync.Mutex
	var sigma0 []byte
	ring, signers := crypto.NewTestKeyring(2, 77)
	core := &tamperCore{inner: NewServer(2)}
	core.tamper = func(from int, r *wire.Reply) *wire.Reply {
		mu.Lock()
		defer mu.Unlock()
		if inject && from == 1 {
			// Forge a fresh concurrent op of client 0 with its real
			// signature for the expected timestamp, but clear P[0]'s
			// signature (its well-formed hash stays).
			r.L = append(r.L, wire.Invocation{Client: 0, Op: wire.OpWrite, Reg: 0, SubmitSig: sigma0})
			r.P[0].Sig = nil
		}
		return r
	}
	nw := transport.NewNetwork(2, core)
	t.Cleanup(nw.Stop)
	c0 := NewClient(0, ring, signers[0], nw.ClientLink(0))
	c1 := NewClient(1, ring, signers[1], nw.ClientLink(1))

	if err := c0.Write([]byte("a")); err != nil { // t=1
		t.Fatal(err)
	}
	if _, err := c1.Read(0); err != nil { // c1 digest entry for 0 set
		t.Fatal(err)
	}
	// Prepare a genuine signature of client 0 for its next timestamp.
	mu.Lock()
	sigma0 = signers[0].Sign(crypto.DomainSubmit, wire.SubmitPayload(wire.OpWrite, 0, 2, nil))
	inject = true
	mu.Unlock()
	err := c1.Write([]byte("x"))
	expectDetection(t, err, "line 41")
}

func TestDetectsWrongReplyKind(t *testing.T) {
	clients := tamperCluster(t, func(from int, r *wire.Reply) *wire.Reply {
		r.IsRead = !r.IsRead
		if r.IsRead {
			r.JVer = wire.ZeroSignedVersion(2)
		}
		return r
	})
	err := clients[0].Write([]byte("a"))
	expectDetection(t, err, "")
}

func TestDetectsMalformedReplyShape(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(from int, r *wire.Reply) *wire.Reply
	}{
		{"out-of-range c", func(from int, r *wire.Reply) *wire.Reply { r.C = 9; return r }},
		{"short P", func(from int, r *wire.Reply) *wire.Reply { r.P = r.P[:1]; return r }},
		{"wrong version dim", func(from int, r *wire.Reply) *wire.Reply {
			r.CVer = wire.ZeroSignedVersion(5)
			return r
		}},
		{"bad tuple client", func(from int, r *wire.Reply) *wire.Reply {
			r.L = append(r.L, wire.Invocation{Client: 17, Op: wire.OpRead, Reg: 0})
			return r
		}},
		{"bad tuple opcode", func(from int, r *wire.Reply) *wire.Reply {
			r.L = append(r.L, wire.Invocation{Client: 1, Op: 0, Reg: 0})
			return r
		}},
	}
	for _, tcase := range cases {
		t.Run(tcase.name, func(t *testing.T) {
			clients := tamperCluster(t, tcase.tamper)
			err := clients[0].Write([]byte("a"))
			expectDetection(t, err, "")
		})
	}
}

func TestHaltAfterDetection(t *testing.T) {
	clients := tamperCluster(t, func(from int, r *wire.Reply) *wire.Reply {
		r.C = 9
		return r
	})
	c := clients[0]
	err := c.Write([]byte("a"))
	expectDetection(t, err, "")
	if err := c.Write([]byte("b")); !errors.Is(err, ErrHalted) {
		t.Fatalf("second op after detection: %v, want ErrHalted", err)
	}
	if _, err := c.Read(0); !errors.Is(err, ErrHalted) {
		t.Fatalf("read after detection: %v, want ErrHalted", err)
	}
	failed, reason := c.Failed()
	if !failed || reason == nil {
		t.Fatal("Failed() does not report the detection")
	}
}

func TestFailHandlerFiresOnce(t *testing.T) {
	const n = 1
	ring, signers := crypto.NewTestKeyring(n, 88)
	core := &tamperCore{inner: NewServer(n)}
	core.tamper = func(from int, r *wire.Reply) *wire.Reply { r.C = 5; return r }
	nw := transport.NewNetwork(n, core)
	t.Cleanup(nw.Stop)
	var calls int
	c := NewClient(0, ring, signers[0], nw.ClientLink(0), WithFailHandler(func(err error) { calls++ }))
	_ = c.Write([]byte("a"))
	_ = c.Write([]byte("b"))
	if calls != 1 {
		t.Fatalf("fail handler fired %d times, want 1", calls)
	}
}

func TestDetectionErrorMessage(t *testing.T) {
	e := &DetectionError{Client: 3, Check: "line 36"}
	if e.Error() == "" || !bytes.Contains([]byte(e.Error()), []byte("line 36")) {
		t.Fatalf("unhelpful error: %q", e.Error())
	}
}
