package ustor

import (
	"context"
	"testing"

	"faust/internal/crypto"
	"faust/internal/obs"
	"faust/internal/transport"
	"faust/internal/wire"
)

// One signature per invocation: C_k's SUBMIT-signature covers
// (op, reg, t, H(xbar_k)), so it is both the paper's sigma (line 43
// checks it on the tuple in L) and its DATA-signature delta (line 50
// checks it on MEM[k]). These tests attack the folded signature.

// foldCore records client 0's SUBMITs and lets the test tamper with the
// replies to client 1.
type foldCore struct {
	tamperCore
	subs []*wire.Submit // client 0's SUBMITs, in order; guarded by mu
}

func (fc *foldCore) HandleSubmit(ctx context.Context, from int, s *wire.Submit) *wire.Reply {
	if from == 0 {
		fc.mu.Lock()
		fc.subs = append(fc.subs, s)
		fc.mu.Unlock()
	}
	return fc.tamperCore.HandleSubmit(ctx, from, s)
}

// foldScenario runs the schedule that has lines 43 and 50 check the same
// signature. Client 0 piggybacks its COMMITs and writes "a", "b", "c", so
// its third write is still in L when client 1 reads register 0: line 43
// verifies that write's SUBMIT-signature on the tuple in L, and line 50
// verifies it again on MEM[0]. tamper sees a deep copy of client 1's
// REPLY and client 0's three SUBMITs. The return values are client 1's
// read result and error.
func foldScenario(t *testing.T, tamper func(r *wire.Reply, c0 []*wire.Submit)) ([]byte, error) {
	t.Helper()
	const n = 2
	ring, signers := crypto.NewTestKeyring(n, 4343)
	core := &foldCore{tamperCore: tamperCore{inner: NewServer(n)}}
	armed := false
	core.tamper = func(from int, r *wire.Reply) *wire.Reply {
		if armed && from == 1 && tamper != nil {
			tamper(r, core.subs)
		}
		return r
	}
	nw := transport.NewNetwork(n, core)
	t.Cleanup(nw.Stop)
	c0 := NewClient(0, ring, signers[0], nw.ClientLink(0), WithCommitPiggyback())
	c1 := NewClient(1, ring, signers[1], nw.ClientLink(1))
	for _, x := range []string{"a", "b", "c"} {
		if err := c0.Write([]byte(x)); err != nil {
			t.Fatal(err)
		}
	}
	core.mu.Lock()
	armed = true
	core.mu.Unlock()
	return c1.Read(0)
}

func TestFoldScenarioHonest(t *testing.T) {
	var seen *wire.Reply
	got, err := foldScenario(t, func(r *wire.Reply, _ []*wire.Submit) { seen = r.Clone() })
	if err != nil {
		t.Fatalf("honest schedule rejected: %v", err)
	}
	if string(got) != "c" {
		t.Fatalf("read %q, want \"c\"", got)
	}
	// The tuple in L and MEM[0] carry the same invocation of client 0.
	if len(seen.L) != 1 || seen.L[0].Client != 0 || seen.Mem.T != 3 ||
		seen.Mem.Op != wire.OpWrite || seen.Mem.Reg != 0 ||
		string(seen.Mem.SubmitSig) != string(seen.L[0].SubmitSig) {
		t.Fatalf("unexpected REPLY shape: L=%v MEM=%+v", seen.L, seen.Mem)
	}
	if string(seen.L[0].XHash) != string(crypto.Hash([]byte("c"))) {
		t.Fatal("L[0] does not carry the hash of client 0's value")
	}
}

func TestFoldedSubmitSignatureAttacks(t *testing.T) {
	cases := []struct {
		name   string
		line   string
		tamper func(r *wire.Reply, c0 []*wire.Submit)
	}{
		{"MEM[j]'s value swapped for C_j's previous value", "line 50", func(r *wire.Reply, c0 []*wire.Submit) {
			r.Mem.Value = c0[1].Value
		}},
		{"MEM[j] relabelled as a read", "line 50", func(r *wire.Reply, _ []*wire.Submit) {
			r.Mem.Op = wire.OpRead
		}},
		{"MEM[j] relabelled to another register", "line 50", func(r *wire.Reply, _ []*wire.Submit) {
			r.Mem.Reg = 1
		}},
		{"MEM[j] with C_j's signature of another timestamp", "line 50", func(r *wire.Reply, c0 []*wire.Submit) {
			r.Mem.SubmitSig = c0[1].Inv.SubmitSig
		}},
		{"MEM[j] with C_j's previous value and its signature", "line 50", func(r *wire.Reply, c0 []*wire.Submit) {
			r.Mem.Value, r.Mem.SubmitSig = c0[1].Value, c0[1].Inv.SubmitSig
		}},
		{"tuple's signature paired with another operation's value hash", "line 43", func(r *wire.Reply, c0 []*wire.Submit) {
			r.L[0].XHash = c0[1].Inv.XHash
		}},
		{"tuple's value hash dropped to bottom", "line 43", func(r *wire.Reply, _ []*wire.Submit) {
			r.L[0].XHash = nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := foldScenario(t, tc.tamper)
			expectDetection(t, err, tc.line)
		})
	}
}

// TestLine50ReusesLine43Verification: MEM[0] presents the very
// invocation line 43 accepted in L, so line 50 costs no ed25519.Verify.
// Client 1's read runs five signature checks — lines 35, 41 and 49 on
// client 0's second commit, lines 43 and 50 on its third SUBMIT — over
// two distinct triples.
func TestLine50ReusesLine43Verification(t *testing.T) {
	verifies := obs.Default().Histogram("faust_ed25519_verify_ns")
	hits := obs.Default().Counter("faust_verify_cache_hits_total")
	var v0, h0 int64
	_, err := foldScenario(t, func(*wire.Reply, []*wire.Submit) {
		// Runs on the server side, before client 1 checks anything.
		v0, h0 = verifies.Snapshot().Count, hits.Value()
	})
	if err != nil {
		t.Fatal(err)
	}
	if dv, dh := verifies.Snapshot().Count-v0, hits.Value()-h0; dv != 2 || dh != 3 {
		t.Fatalf("client 1's read: %d real verifications and %d cache hits, want 2 and 3 (line 50 answered from the cache)", dv, dh)
	}
}

// TestDetectsMalformedInvocationFields: a value hash in L that is neither
// bottom nor HashSize bytes, and a MEM entry whose opcode or register is
// out of range, are rejected by the shape check before any check uses
// them.
func TestDetectsMalformedInvocationFields(t *testing.T) {
	cases := []struct {
		name   string
		want   string
		tamper func(r *wire.Reply)
	}{
		{"empty value hash", "value hash", func(r *wire.Reply) { r.L[0].XHash = []byte{} }},
		{"truncated value hash", "value hash", func(r *wire.Reply) { r.L[0].XHash = r.L[0].XHash[:crypto.HashSize-1] }},
		{"oversized value hash", "value hash", func(r *wire.Reply) { r.L[0].XHash = append(r.L[0].XHash, 0) }},
		{"MEM opcode zero", "MEM entry", func(r *wire.Reply) { r.Mem.Op = 0 }},
		{"MEM opcode unknown", "MEM entry", func(r *wire.Reply) { r.Mem.Op = 7 }},
		{"MEM register negative", "MEM entry", func(r *wire.Reply) { r.Mem.Reg = -1 }},
		{"MEM register out of range", "MEM entry", func(r *wire.Reply) { r.Mem.Reg = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := foldScenario(t, func(r *wire.Reply, _ []*wire.Submit) { tc.tamper(r) })
			expectDetection(t, err, tc.want)
		})
	}
}
