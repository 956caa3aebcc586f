package ustor

import (
	"context"
	"testing"

	"faust/internal/crypto"
	"faust/internal/transport"
	"faust/internal/wire"
)

// Byzantine replay through a warm verified-signature cache. Both clients
// share one keyring, so every signature either of them (or the test)
// verified is remembered by the ring. The server below re-presents such
// genuinely valid, already-accepted signatures in slots where they do not
// belong; each attack must still be caught by the same check of
// Algorithm 1 as with a cold cache, because the cache key binds the
// signer, the domain and the exact payload the check recomputes.

// replayServer captures client 0's SUBMIT-signatures and the replies the
// server sends, and applies the test's tamper function to replies for
// client 1.
type replayServer struct {
	tamperCore
	sigmas   map[int64][]byte  // client 0's SUBMIT-signatures by timestamp
	replies  []*wire.Reply     // every reply, in send order
	onReader func(*wire.Reply) // tampers with replies to client 1
}

func (rs *replayServer) HandleSubmit(ctx context.Context, from int, s *wire.Submit) *wire.Reply {
	r := rs.inner.HandleSubmit(ctx, from, s)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if from == 0 {
		rs.sigmas[s.T] = append([]byte(nil), s.Inv.SubmitSig...)
	}
	if r != nil {
		rs.replies = append(rs.replies, r)
		if from == 1 && rs.onReader != nil {
			rs.onReader(r)
		}
	}
	return r
}

func (rs *replayServer) setTamper(f func(*wire.Reply)) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.onReader = f
}

// lastRead returns the newest read reply the server sent.
func (rs *replayServer) lastRead(t *testing.T) *wire.Reply {
	t.Helper()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for i := len(rs.replies) - 1; i >= 0; i-- {
		if rs.replies[i].IsRead {
			return rs.replies[i]
		}
	}
	t.Fatal("no read reply recorded")
	return nil
}

func replayCluster(t *testing.T) (*replayServer, *crypto.Keyring, *Client, *Client) {
	t.Helper()
	ring, signers := crypto.NewTestKeyring(2, 56)
	rs := &replayServer{tamperCore: tamperCore{inner: NewServer(2)}, sigmas: map[int64][]byte{}}
	nw := transport.NewNetwork(2, rs)
	t.Cleanup(nw.Stop)
	return rs, ring, NewClient(0, ring, signers[0], nw.ClientLink(0)), NewClient(1, ring, signers[1], nw.ClientLink(1))
}

func mustDo(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestReplayedSubmitSignatureInLDetected(t *testing.T) {
	rs, ring, c0, c1 := replayCluster(t)
	mustDo(t, c0.Write([]byte("v1"))) // t=1
	_, err := c1.Read(0)
	mustDo(t, err)
	mustDo(t, c0.Write([]byte("v2"))) // t=2

	// Warm the shared ring with client 0's genuine sigma for t=1.
	rs.mu.Lock()
	old := rs.sigmas[1]
	rs.mu.Unlock()
	xhash := crypto.Hash([]byte("v1"))
	if !ring.Verify(0, old, crypto.DomainSubmit, wire.SubmitPayload(wire.OpWrite, 0, 1, xhash)) {
		t.Fatal("client 0's own t=1 SUBMIT-signature does not verify")
	}
	// Present it, with the value hash it covers, as client 0's next
	// operation (t=3) in client 1's L.
	rs.setTamper(func(r *wire.Reply) {
		r.L = append(append([]wire.Invocation(nil), r.L...),
			wire.Invocation{Client: 0, Op: wire.OpWrite, Reg: 0, SubmitSig: old, XHash: xhash})
	})
	expectDetection(t, c1.Write([]byte("x")), "line 43")
}

func TestReplayedMemEntryDetected(t *testing.T) {
	cases := []struct {
		name    string
		relabel bool // rewrite the old entry's timestamp to the current one
		line    string
	}{
		{"older MEM[j] with its valid SUBMIT-signature", false, "line 51"},
		{"older MEM[j] relabelled to the current timestamp", true, "line 50"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs, _, c0, c1 := replayCluster(t)
			mustDo(t, c0.Write([]byte("v1"))) // t=1
			_, err := c1.Read(0)              // verifies (caches) sigma_0 for t=1
			mustDo(t, err)
			old := rs.lastRead(t).Mem.Clone()
			mustDo(t, c0.Write([]byte("v2"))) // t=2

			rs.setTamper(func(r *wire.Reply) {
				if !r.IsRead {
					return
				}
				cur := r.Mem.T
				r.Mem = old.Clone()
				if tc.relabel {
					r.Mem.T = cur
				}
			})
			_, err = c1.Read(0)
			expectDetection(t, err, tc.line)
		})
	}
}

func TestReplayedWriterVersionDetected(t *testing.T) {
	rs, _, c0, c1 := replayCluster(t)
	mustDo(t, c0.Write([]byte("v1"))) // t=1
	_, err := c1.Read(0)              // verifies (caches) SVER[0] at t=1
	mustDo(t, err)
	old := rs.lastRead(t).JVer.Clone()
	if old.Ver.V[0] != 1 {
		t.Fatalf("captured SVER[0] has V[0]=%d, want 1", old.Ver.V[0])
	}
	mustDo(t, c0.Write([]byte("v2"))) // t=2
	mustDo(t, c0.Write([]byte("v3"))) // t=3: SVER[0] at t=1 is now two writes stale

	rs.setTamper(func(r *wire.Reply) {
		if r.IsRead {
			r.JVer = old.Clone()
		}
	})
	_, err = c1.Read(0)
	expectDetection(t, err, "line 52")
}
