package ustor

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"faust/internal/crypto"
	"faust/internal/obs"
	"faust/internal/transport"
	"faust/internal/wire"
)

// The line-41 check verifies P[k] = (H(v_k), phi_k): C_k's
// COMMIT-signature from its latest commit, over C_k's own digest and the
// hash of the committed version. These tests attack that folded proof.

// proofScenario runs the schedule that exercises line 41. Client 0
// piggybacks its COMMITs and writes three times, so the server holds its
// second commit as SVER[0] (and P[0]) while its third operation sits in
// L. Client 1 then writes: its REPLY shows SVER[c] = client 0's second
// version, and L names client 0's pending operation, whose predecessor
// must be proven committed. tamper sees a deep copy of that one REPLY
// and the three results of client 0. The return value is client 1's
// write error.
func proofScenario(t *testing.T, tamper func(r *wire.Reply, c0 []OpResult, s []*crypto.Signer)) error {
	t.Helper()
	const n = 2
	ring, signers := crypto.NewTestKeyring(n, 4141)
	var (
		mu    sync.Mutex
		armed bool
		res   []OpResult
	)
	core := &tamperCore{inner: NewServer(n)}
	core.tamper = func(from int, r *wire.Reply) *wire.Reply {
		mu.Lock()
		defer mu.Unlock()
		if armed && from == 1 && tamper != nil {
			tamper(r, res, signers)
		}
		return r
	}
	nw := transport.NewNetwork(n, core)
	t.Cleanup(nw.Stop)
	c0 := NewClient(0, ring, signers[0], nw.ClientLink(0), WithCommitPiggyback())
	c1 := NewClient(1, ring, signers[1], nw.ClientLink(1))
	for _, x := range []string{"a", "b", "c"} {
		r, err := c0.WriteX(context.Background(), []byte(x))
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		res = append(res, r)
		mu.Unlock()
	}
	mu.Lock()
	armed = true
	mu.Unlock()
	return c1.Write([]byte("x"))
}

func TestProofScenarioHonest(t *testing.T) {
	var seen *wire.Reply
	err := proofScenario(t, func(r *wire.Reply, c0 []OpResult, _ []*crypto.Signer) {
		seen = r.Clone()
	})
	if err != nil {
		t.Fatalf("honest schedule rejected: %v", err)
	}
	// The schedule really reaches line 41 for client 0's second commit.
	if seen.C != 0 || len(seen.L) != 1 || seen.L[0].Client != 0 || seen.CVer.Ver.V[0] != 2 {
		t.Fatalf("unexpected REPLY shape: c=%d L=%v V=%v", seen.C, seen.L, seen.CVer.Ver.V)
	}
	if !bytes.Equal(seen.P[0].Hash, wire.VersionHash(seen.CVer.Ver)) || !bytes.Equal(seen.P[0].Sig, seen.CVer.Sig) {
		t.Fatal("P[0] is not derived from SVER[0]")
	}
}

func TestFoldedProofAttacks(t *testing.T) {
	cases := []struct {
		name   string
		line   string
		tamper func(r *wire.Reply, c0 []OpResult, s []*crypto.Signer)
	}{
		{"(a) hash of another version of C_k", "line 41", func(r *wire.Reply, c0 []OpResult, _ []*crypto.Signer) {
			r.P[0].Hash = wire.VersionHash(c0[2].Version.Ver)
		}},
		{"(b) replay of C_k's older commit", "line 41", func(r *wire.Reply, c0 []OpResult, _ []*crypto.Signer) {
			old := c0[0].Version
			r.P[0] = wire.ProofEntry{Hash: wire.VersionHash(old.Ver), Sig: old.Sig}
		}},
		{"(c) SVER[c] with a bumped V entry", "line 35", func(r *wire.Reply, _ []OpResult, _ []*crypto.Signer) {
			r.CVer.Ver.V[0]++
		}},
		{"(d) C_k's SUBMIT-signature as proof", "line 41", func(r *wire.Reply, _ []OpResult, _ []*crypto.Signer) {
			r.P[0].Sig = r.L[0].SubmitSig
		}},
		{"(d) C_k's key on the proof payload under the DATA domain", "line 41", func(r *wire.Reply, _ []OpResult, s []*crypto.Signer) {
			payload := wire.CommitPayload(0, r.CVer.Ver)
			r.P[0].Sig = s[0].Sign(2, payload) // the retired DATA tag
		}},
		{"(d) C_k's key on the proof payload under the SUBMIT domain", "line 41", func(r *wire.Reply, _ []OpResult, s []*crypto.Signer) {
			payload := wire.CommitPayload(0, r.CVer.Ver)
			r.P[0].Sig = s[0].Sign(crypto.DomainSubmit, payload)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := proofScenario(t, tc.tamper)
			expectDetection(t, err, tc.line)
		})
	}
}

// TestLine41ReusesLine35Verification: when the proof for C_k is the very
// commit another client of the ring accepted as SVER[c], line 41 costs no
// ed25519.Verify. Client 1's write runs three signature checks — line 35
// on client 0's second commit, line 41 on the same commit, line 43 on
// client 0's pending SUBMIT — but only two distinct triples exist.
func TestLine41ReusesLine35Verification(t *testing.T) {
	verifies := obs.Default().Histogram("faust_ed25519_verify_ns")
	hits := obs.Default().Counter("faust_verify_cache_hits_total")
	var v0, h0 int64
	err := proofScenario(t, func(*wire.Reply, []OpResult, []*crypto.Signer) {
		// Runs on the server side, before client 1 checks anything.
		v0, h0 = verifies.Snapshot().Count, hits.Value()
	})
	if err != nil {
		t.Fatal(err)
	}
	if dv, dh := verifies.Snapshot().Count-v0, hits.Value()-h0; dv != 2 || dh != 1 {
		t.Fatalf("client 1's write: %d real verifications and %d cache hits, want 2 and 1 (line 41 answered from the cache)", dv, dh)
	}
}

// TestDetectsMalformedProofEntries: a P entry whose hash is not HashSize
// bytes, or whose signature is present with the wrong size, is rejected
// by the shape check with a DetectionError — before any slice of it is
// used.
func TestDetectsMalformedProofEntries(t *testing.T) {
	cases := []struct {
		name  string
		entry func(p wire.ProofEntry) wire.ProofEntry
	}{
		{"nil entry", func(wire.ProofEntry) wire.ProofEntry { return wire.ProofEntry{} }},
		{"nil hash", func(p wire.ProofEntry) wire.ProofEntry { p.Hash = nil; return p }},
		{"truncated hash", func(p wire.ProofEntry) wire.ProofEntry { p.Hash = p.Hash[:crypto.HashSize-1]; return p }},
		{"oversized hash", func(p wire.ProofEntry) wire.ProofEntry { p.Hash = append(p.Hash, 0); return p }},
		{"empty signature", func(p wire.ProofEntry) wire.ProofEntry { p.Sig = []byte{}; return p }},
		{"truncated signature", func(p wire.ProofEntry) wire.ProofEntry {
			p.Sig = make([]byte, crypto.SignatureSize-1)
			return p
		}},
		{"oversized signature", func(p wire.ProofEntry) wire.ProofEntry {
			p.Sig = make([]byte, crypto.SignatureSize+1)
			return p
		}},
	}
	for _, tc := range cases {
		for k := 0; k < 2; k++ {
			t.Run(fmt.Sprintf("%s in P[%d]", tc.name, k), func(t *testing.T) {
				clients := tamperCluster(t, func(from int, r *wire.Reply) *wire.Reply {
					r.P[k] = tc.entry(r.P[k])
					return r
				})
				err := clients[0].Write([]byte("a"))
				expectDetection(t, err, "PROOF entry")
			})
		}
	}
}
