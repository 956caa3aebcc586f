package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"faust/internal/crypto"
	"faust/internal/obs"
	"faust/internal/wire"
)

func startTCP(t *testing.T, core ServerCore, opts ...TCPOption) (*TCPServer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := ServeTCP(ln, core, opts...)
	t.Cleanup(srv.Stop)
	return srv, ln.Addr().String()
}

func TestTCPRoundTrip(t *testing.T) {
	core := &echoCore{}
	_, addr := startTCP(t, core)
	link, err := DialTCPShard(addr, "", 0)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer link.Close()
	if err := link.Send(&wire.Submit{T: 9}); err != nil {
		t.Fatalf("send: %v", err)
	}
	m, err := link.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if got := m.(*wire.Reply).C; got != 9 {
		t.Fatalf("reply.C = %d, want 9", got)
	}
}

func TestTCPFIFOPerClient(t *testing.T) {
	core := &echoCore{}
	_, addr := startTCP(t, core)
	link, err := DialTCPShard(addr, "", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	for i := 0; i < 50; i++ {
		if err := link.Send(&wire.Submit{T: int64(i), Inv: wire.Invocation{Client: 3}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		m, err := link.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.(*wire.Reply).C; got != i {
			t.Fatalf("reply %d out of order: %d", i, got)
		}
	}
}

func TestTCPMultipleClients(t *testing.T) {
	core := &echoCore{}
	_, addr := startTCP(t, core)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			link, err := DialTCPShard(addr, "", c)
			if err != nil {
				t.Errorf("client %d dial: %v", c, err)
				return
			}
			defer link.Close()
			for i := 0; i < 20; i++ {
				if err := link.Send(&wire.Submit{T: int64(i), Inv: wire.Invocation{Client: c}}); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				m, err := link.Recv()
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if got := m.(*wire.Reply).C; got != i {
					t.Errorf("client %d reply %d: got %d", c, i, got)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestTCPCommitDelivered(t *testing.T) {
	core := &echoCore{}
	_, addr := startTCP(t, core)
	link, err := DialTCPShard(addr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	for i := 0; i < 5; i++ {
		if err := link.Send(&wire.Commit{}); err != nil {
			t.Fatal(err)
		}
	}
	_ = link.Send(&wire.Submit{T: 1})
	if _, err := link.Recv(); err != nil {
		t.Fatal(err)
	}
	core.mu.Lock()
	defer core.mu.Unlock()
	if len(core.commits) != 5 {
		t.Fatalf("commits = %d, want 5", len(core.commits))
	}
}

func TestTCPRecvFailsAfterStop(t *testing.T) {
	core := &echoCore{}
	srv, addr := startTCP(t, core)
	link, err := DialTCPShard(addr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	done := make(chan error, 1)
	go func() {
		_, err := link.Recv()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	srv.Stop()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv succeeded after server stop")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock")
	}
}

func TestTCPDialUnreachable(t *testing.T) {
	if _, err := DialTCPShard("127.0.0.1:1", "", 0); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// sizedEchoCore exposes a client-group size, enabling the transport's
// handshake ID validation.
type sizedEchoCore struct {
	echoCore
	n int
}

func (c *sizedEchoCore) N() int { return c.n }

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestTCPStopHalfOpenConn is the regression test for the shutdown hang: a
// connection that never completes the handshake used to block Stop forever
// (serveConn sat in readFrame, the conn was in no registry, wg.Wait
// deadlocked). Pre-handshake connections are now tracked and closed.
func TestTCPStopHalfOpenConn(t *testing.T) {
	srv, addr := startTCP(t, &echoCore{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Give the server time to accept the conn so it is truly half-open
	// server-side (accepted, no hello) when Stop runs.
	time.Sleep(30 * time.Millisecond)

	done := make(chan struct{})
	go func() {
		srv.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung on a half-open connection")
	}
}

// TestTCPHandshakeDeadline verifies that a connection which never sends a
// hello is closed by the handshake deadline even without Stop.
func TestTCPHandshakeDeadline(t *testing.T) {
	_, addr := startTCP(t, &echoCore{}, WithHandshakeTimeout(50*time.Millisecond))
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("server kept a hello-less connection past the handshake deadline")
	}
}

// TestTCPConnCleanup is the regression test for the connection leak: dead
// connections used to stay in the registry forever.
func TestTCPConnCleanup(t *testing.T) {
	srv, addr := startTCP(t, &echoCore{})
	link, err := DialTCPShard(addr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Round trip to guarantee the handshake registered the conn.
	if err := link.Send(&wire.Submit{T: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := link.Recv(); err != nil {
		t.Fatal(err)
	}
	if got := srv.ActiveConns(); got != 1 {
		t.Fatalf("ActiveConns = %d, want 1", got)
	}
	_ = link.Close()
	waitFor(t, 2*time.Second, func() bool { return srv.ActiveConns() == 0 },
		"closed connection never left the registry")
}

// TestTCPDuplicateHandshake: a second handshake for the same ID replaces
// (and closes) the first connection, and the first conn's teardown must not
// evict the second from the registry.
func TestTCPDuplicateHandshake(t *testing.T) {
	srv, addr := startTCP(t, &echoCore{})
	link1, err := DialTCPShard(addr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer link1.Close()
	if err := link1.Send(&wire.Submit{T: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := link1.Recv(); err != nil {
		t.Fatal(err)
	}
	link2, err := DialTCPShard(addr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer link2.Close()
	if err := link2.Send(&wire.Submit{T: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := link2.Recv(); err != nil {
		t.Fatal(err)
	}
	// The first link was closed server-side; once its serveConn exits, the
	// registry must still hold exactly the second connection.
	if _, err := link1.Recv(); err == nil {
		t.Fatal("first connection still alive after duplicate handshake")
	}
	waitFor(t, 2*time.Second, func() bool { return srv.ActiveConns() == 1 },
		"registry does not hold exactly the replacement connection")
	if err := link2.Send(&wire.Submit{T: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := link2.Recv(); err != nil {
		t.Fatalf("replacement connection broken: %v", err)
	}
}

// TestTCPOutOfRangeID: IDs outside [0, core.N()) must never occupy a
// registry entry (the unbounded-map memory-exhaustion vector).
func TestTCPOutOfRangeID(t *testing.T) {
	srv, addr := startTCP(t, &sizedEchoCore{n: 2})

	// Rejected in the ack, so Dial itself fails.
	if _, err := DialTCPShard(addr, DefaultShard, 7); err == nil {
		t.Fatal("DialTCPShard accepted out-of-range id 7")
	}
	if got := srv.ActiveConns(); got != 0 {
		t.Fatalf("ActiveConns = %d after rejected handshake, want 0", got)
	}
	// An in-range dial works against the same server.
	ok, err := DialTCPShard(addr, DefaultShard, 1)
	if err != nil {
		t.Fatalf("in-range dial: %v", err)
	}
	defer ok.Close()
	if err := ok.Send(&wire.Submit{T: 5, Inv: wire.Invocation{Client: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ok.Recv(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPUnknownShardRejected: the ack carries the resolver's error.
func TestTCPUnknownShardRejected(t *testing.T) {
	_, addr := startTCP(t, &echoCore{})
	if _, err := DialTCPShard(addr, "no-such-shard", 0); err == nil {
		t.Fatal("dial to unknown shard succeeded")
	}
}

// pushCore records the attached pusher so tests can push from arbitrary
// goroutines, emulating cores with server-initiated messages.
type pushCore struct {
	echoCore
	push func(to int, m wire.Message) error
}

func (c *pushCore) HandleMessage(from int, m wire.Message) {}
func (c *pushCore) AttachPusher(push func(to int, m wire.Message) error) {
	c.push = push
}

var _ GenericCore = (*pushCore)(nil)

// TestTCPConcurrentPushIntegrity is the regression test for frame
// corruption: concurrent pushTo calls used to issue header and payload as
// separate unsynchronized writes, interleaving bytes on the stream. Every
// frame pushed from many goroutines must decode on the client side.
func TestTCPConcurrentPushIntegrity(t *testing.T) {
	core := &pushCore{}
	_, addr := startTCP(t, core) // ServeTCP attaches the pusher before returning
	link, err := DialTCPShard(addr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	// Round trip so the connection is registered before the hammering.
	if err := link.Send(&wire.Submit{T: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := link.Recv(); err != nil {
		t.Fatal(err)
	}

	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Varying payload sizes stress partial-write interleaving.
				m := &wire.Reply{
					C:    g*perG + i,
					CVer: wire.ZeroSignedVersion(1),
					P:    []wire.ProofEntry{{Sig: make([]byte, (g*31+i)%257)}},
				}
				if err := core.push(0, m); err != nil {
					t.Errorf("push: %v", err)
					return
				}
			}
		}(g)
	}

	seen := make(map[int]bool)
	for k := 0; k < goroutines*perG; k++ {
		m, err := link.Recv()
		if err != nil {
			t.Fatalf("frame %d corrupted: %v", k, err)
		}
		reply, ok := m.(*wire.Reply)
		if !ok {
			t.Fatalf("frame %d decoded as %T", k, m)
		}
		if seen[reply.C] {
			t.Fatalf("duplicate frame %d", reply.C)
		}
		seen[reply.C] = true
	}
	wg.Wait()
}

// TestTCPShardIsolationAndParallelDispatch runs two shards on one
// listener: both host a client with the same ID, yet their submissions
// reach distinct cores.
func TestTCPShardedRouting(t *testing.T) {
	coreA, coreB := &echoCore{}, &echoCore{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCPSharded(ln, StaticShards(map[string]ServerCore{"a": coreA, "b": coreB}))
	t.Cleanup(srv.Stop)

	linkA, err := DialTCPShard(ln.Addr().String(), "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer linkA.Close()
	linkB, err := DialTCPShard(ln.Addr().String(), "b", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer linkB.Close()

	for i := 0; i < 10; i++ {
		if err := linkA.Send(&wire.Submit{T: int64(i)}); err != nil {
			t.Fatal(err)
		}
		if err := linkB.Send(&wire.Submit{T: int64(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		m, err := linkA.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.(*wire.Reply).C; got != i {
			t.Fatalf("shard a reply %d: got %d", i, got)
		}
		m, err = linkB.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.(*wire.Reply).C; got != 100+i {
			t.Fatalf("shard b reply %d: got %d", i, got)
		}
	}
	coreA.mu.Lock()
	nA := len(coreA.submits)
	coreA.mu.Unlock()
	coreB.mu.Lock()
	nB := len(coreB.submits)
	coreB.mu.Unlock()
	if nA != 10 || nB != 10 {
		t.Fatalf("submit counts = %d/%d, want 10/10", nA, nB)
	}
}

// authShards is a static resolver whose shards all authenticate hellos
// against one keyring.
type authShards struct {
	ShardResolver
	ring *crypto.Keyring
}

func (a authShards) ResolveVerifier(string) *crypto.Keyring { return a.ring }

// startAuthTCP serves shards behind hello authentication against ring.
func startAuthTCP(t *testing.T, shards map[string]ServerCore, ring *crypto.Keyring, opts ...TCPOption) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := ServeTCPSharded(ln, authShards{StaticShards(shards), ring}, opts...)
	t.Cleanup(srv.Stop)
	return ln.Addr().String()
}

// rawChallenge sends a hello on a fresh connection and returns the
// connection with the server's challenge nonce.
func rawChallenge(t *testing.T, addr, shard string, id int) (net.Conn, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeFrame(conn, helloFrame(shard, id)); err != nil {
		t.Fatal(err)
	}
	ch, err := readFrame(conn)
	if err != nil {
		t.Fatalf("reading the challenge: %v", err)
	}
	if len(ch) != 1+nonceLen || ch[0] != ackChallenge {
		t.Fatalf("got %v, want a challenge frame", ch)
	}
	return conn, ch[1:]
}

// TestTCPHelloLeavesVerifiedCacheAlone: the hello answer signs a fresh
// nonce that no party ever presents again, so admitting a client must
// neither fill the keyring's verified-signature cache (whose entries the
// protocol checks re-present) nor be answered from it. A tampered answer
// is still refused.
func TestTCPHelloLeavesVerifiedCacheAlone(t *testing.T) {
	ring, signers := crypto.NewTestKeyring(1, 43)
	addr := startAuthTCP(t, map[string]ServerCore{"a": &echoCore{}}, ring)
	verifies := obs.Default().Histogram("faust_ed25519_verify_ns")
	hits := obs.Default().Counter("faust_verify_cache_hits_total")
	counts := func() (int64, int64) { return verifies.Snapshot().Count, hits.Value() }

	conn, nonce := rawChallenge(t, addr, "a", 0)
	payload := helloPayload(nonce, 0, "a")
	sig := signers[0].Sign(crypto.DomainHello, payload)
	v0, h0 := counts()
	if err := writeFrame(conn, sig); err != nil {
		t.Fatal(err)
	}
	if ack, err := readFrame(conn); err != nil || !bytes.Equal(ack, []byte{ackAccepted}) {
		t.Fatalf("correctly signed hello: ack %q, %v", ack, err)
	}
	if v, h := counts(); v-v0 != 1 || h != h0 {
		t.Fatalf("admission: %d real verifications and %d cache hits, want 1 and 0", v-v0, h-h0)
	}
	// Had the admission cached the triple, this check would be a hit.
	if !ring.Verify(0, sig, crypto.DomainHello, payload) {
		t.Fatal("the admitted hello signature does not verify")
	}
	if v, h := counts(); v-v0 != 2 || h != h0 {
		t.Fatalf("re-check after admission: %d real verifications and %d cache hits in total, want 2 and 0", v-v0, h-h0)
	}

	conn, nonce = rawChallenge(t, addr, "a", 0)
	bad := signers[0].Sign(crypto.DomainHello, helloPayload(nonce, 0, "a"))
	bad[5] ^= 0x01
	if err := writeFrame(conn, bad); err != nil {
		t.Fatal(err)
	}
	if ack, err := readFrame(conn); err != nil || len(ack) == 0 || ack[0] == ackAccepted ||
		!strings.Contains(string(ack[1:]), "does not verify") {
		t.Fatalf("tampered hello: ack %q, %v; want a refusal", ack, err)
	}
}

// TestTCPHelloAuthentication covers the challenge-response hello: who is
// admitted, who is refused (a peer that never answers included), that
// every refusal is counted and logged, and that a keyless shard's
// handshake keeps its one-frame ack.
func TestTCPHelloAuthentication(t *testing.T) {
	ring, signers := crypto.NewTestKeyring(2, 41)
	addr := startAuthTCP(t, map[string]ServerCore{"a": &echoCore{}, "b": &echoCore{}}, ring,
		WithHandshakeTimeout(100*time.Millisecond))
	sign := func(id int, nonce []byte, shard string) []byte {
		return signers[id].Sign(crypto.DomainHello, helloPayload(nonce, id, shard))
	}

	// A signature accepted once, kept for the replay case.
	conn, oldNonce := rawChallenge(t, addr, "a", 0)
	oldSig := sign(0, oldNonce, "a")
	if err := writeFrame(conn, oldSig); err != nil {
		t.Fatal(err)
	}
	if ack, err := readFrame(conn); err != nil || !bytes.Equal(ack, []byte{ackAccepted}) {
		t.Fatalf("correctly signed raw hello: ack %q, %v", ack, err)
	}

	rawAnswer := func(answer func(conn net.Conn, nonce []byte)) func(t *testing.T) error {
		return func(t *testing.T) error {
			conn, nonce := rawChallenge(t, addr, "b", 0)
			answer(conn, nonce)
			ack, err := readFrame(conn)
			if err != nil {
				return fmt.Errorf("no ack: %w", err)
			}
			if ack[0] != ackAccepted {
				return fmt.Errorf("rejected: %s", ack[1:])
			}
			return nil
		}
	}
	answerWith := func(frame []byte) func(t *testing.T) error {
		return rawAnswer(func(conn net.Conn, _ []byte) { _ = writeFrame(conn, frame) })
	}
	cases := []struct {
		name    string
		attempt func(t *testing.T) error
		errHas  string // "" = accepted
	}{
		{"correct signer", func(t *testing.T) error {
			link, err := DialTCPShard(addr, "b", 1, WithSigner(signers[1]))
			if err != nil {
				return err
			}
			defer link.Close()
			if err := link.Send(&wire.Submit{T: 4, Inv: wire.Invocation{Client: 1}}); err != nil {
				return err
			}
			_, err = link.Recv()
			return err
		}, ""},
		{"no signer", func(t *testing.T) error {
			_, err := DialTCPShard(addr, "b", 1)
			return err
		}, "no signer"},
		{"another id's key", rawAnswer(func(conn net.Conn, nonce []byte) {
			_ = writeFrame(conn, signers[1].Sign(crypto.DomainHello, helloPayload(nonce, 0, "b")))
		}), "does not verify"},
		{"replayed signature", func(t *testing.T) error {
			conn, _ := rawChallenge(t, addr, "a", 0)
			_ = writeFrame(conn, oldSig)
			ack, err := readFrame(conn)
			if err != nil {
				return err
			}
			if ack[0] != ackAccepted {
				return fmt.Errorf("rejected: %s", ack[1:])
			}
			return nil
		}, "does not verify"},
		{"shard-a signature at shard b", rawAnswer(func(conn net.Conn, nonce []byte) {
			_ = writeFrame(conn, sign(0, nonce, "a"))
		}), "does not verify"},
		{"0-byte answer", answerWith(nil), "does not verify"},
		{"63-byte answer", answerWith(make([]byte, 63)), "does not verify"},
		{"65-byte answer", answerWith(make([]byte, 65)), "does not verify"},
		{"oversized answer", answerWith(make([]byte, maxHandshakeFrame+1)), "exceeds limit"},
		{"oversized header", rawAnswer(func(conn net.Conn, _ []byte) {
			_, _ = conn.Write([]byte{0xff, 0xff, 0xff, 0xff})
		}), "exceeds limit"},
		{"no answer", rawAnswer(func(net.Conn, []byte) {}), "timeout"},
		{"no answer, no deadline, Stop", func(t *testing.T) error {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := ServeTCPSharded(ln, authShards{StaticShards(map[string]ServerCore{"a": &echoCore{}}), ring},
				WithHandshakeTimeout(0))
			conn, _ := rawChallenge(t, ln.Addr().String(), "a", 0)
			done := make(chan struct{})
			go func() {
				srv.Stop()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Stop hung on a connection waiting at the challenge")
			}
			if _, err := readFrame(conn); err == nil {
				t.Fatal("connection survived Stop")
			}
			return errors.New("closed by Stop")
		}, "closed by Stop"},
		{"keyless shard acks with {0}", func(t *testing.T) error {
			_, addr := startTCP(t, &echoCore{})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := writeFrame(conn, helloFrame(DefaultShard, 0)); err != nil {
				t.Fatal(err)
			}
			ack, err := readFrame(conn)
			if err != nil || !bytes.Equal(ack, []byte{ackAccepted}) {
				t.Fatalf("keyless ack = %v, %v; want [0]", ack, err)
			}
			return nil
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rej0 := tmHandshakeRej.Value()
			ev0 := obs.Default().Events().Total(obs.EventPreflightReject)
			err := tc.attempt(t)
			if tc.errHas == "" {
				if err != nil {
					t.Fatalf("want accepted, got %v", err)
				}
				if d := tmHandshakeRej.Value() - rej0; d != 0 {
					t.Fatalf("accepted hello counted %d rejections", d)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Fatalf("got %v, want an error containing %q", err, tc.errHas)
			}
			// The server counts a rejection after sending its ack, and a
			// client-side refusal only once the server sees the close.
			waitFor(t, 2*time.Second, func() bool {
				return tmHandshakeRej.Value()-rej0 == 1 &&
					obs.Default().Events().Total(obs.EventPreflightReject)-ev0 == 1
			}, "rejection not counted exactly once as a handshake rejection and a preflight-reject event")
		})
	}
}
