package ustor

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"faust/internal/crypto"
	"faust/internal/transport"
	"faust/internal/version"
	"faust/internal/wire"
)

// recordingCore wraps a Server and keeps every REPLY it produced together
// with the reply's encoding at production time. The COW property test
// re-encodes the replies after the server state has moved on and demands
// byte-identical output — any aliasing of mutable server state into a
// reply would change the re-encoding.
type recordingCore struct {
	*Server
	mu      sync.Mutex
	replies []*wire.Reply
	encs    [][]byte
}

func (r *recordingCore) HandleSubmit(ctx context.Context, from int, s *wire.Submit) *wire.Reply {
	reply := r.Server.HandleSubmit(ctx, from, s)
	if reply != nil {
		r.mu.Lock()
		r.replies = append(r.replies, reply)
		r.encs = append(r.encs, wire.Encode(reply))
		r.mu.Unlock()
	}
	return reply
}

// TestReplySnapshotsImmuneToServerMutations is the copy-on-write aliasing
// property test: REPLY messages captured at any point must not change when
// the server's MEM, SVER, L and P are subsequently mutated by further
// submits, commits (which truncate L and replace P entries) and state
// restores. This pins the deep-clone semantics the pre-COW server
// guaranteed by copying.
func TestReplySnapshotsImmuneToServerMutations(t *testing.T) {
	const n = 4
	ring, signers := crypto.NewTestKeyring(n, 77)
	core := &recordingCore{Server: NewServer(n)}
	nw := transport.NewNetwork(n, core)
	t.Cleanup(nw.Stop)
	clients := make([]*Client, n)
	for i := 0; i < n; i++ {
		// Mix piggyback and plain commit clients: piggyback keeps tuples in
		// L longer, so captured replies carry non-empty L snapshots that a
		// later commit truncates.
		var opts []ClientOption
		if i%2 == 1 {
			opts = append(opts, WithCommitPiggyback())
		}
		clients[i] = NewClient(i, ring, signers[i], nw.ClientLink(i), opts...)
	}

	genBefore := core.Server.Generation()
	for round := 0; round < 6; round++ {
		for i, c := range clients {
			if err := c.Write([]byte(fmt.Sprintf("r%d-c%d", round, i))); err != nil {
				t.Fatalf("write: %v", err)
			}
			if _, err := c.Read((i + round) % n); err != nil {
				t.Fatalf("read: %v", err)
			}
		}
	}
	for _, c := range clients {
		if err := c.Flush(); err != nil { // deliver deferred piggyback COMMITs
			t.Fatal(err)
		}
	}
	// One more burst so the flushed COMMITs' L-truncations and P updates
	// happen while all earlier replies are still held.
	for i, c := range clients {
		if err := c.Write([]byte(fmt.Sprintf("final-%d", i))); err != nil {
			t.Fatalf("final write: %v", err)
		}
	}
	nw.Stop() // quiesce before touching captured replies

	if got := core.Server.Generation(); got == genBefore {
		t.Fatal("server generation did not advance; the test mutated nothing")
	}
	core.mu.Lock()
	defer core.mu.Unlock()
	if len(core.replies) == 0 {
		t.Fatal("no replies captured")
	}
	var withL int
	for i, reply := range core.replies {
		if len(reply.L) > 0 {
			withL++
		}
		if got := wire.Encode(reply); !bytes.Equal(got, core.encs[i]) {
			t.Fatalf("reply %d changed after server mutations:\n  captured: %x\n  now:      %x", i, core.encs[i], got)
		}
	}
	if withL == 0 {
		t.Fatal("no captured reply carried a non-empty L; the test exercised no interesting snapshot")
	}
}

// TestReplyUnaffectedByDirectHandlerMutations drives the raw server
// handlers (the server verifies nothing, so synthetic messages suffice)
// and checks the sharpest COW edges one by one: a reply captured while
// tuples sit in L must survive the commit that truncates L, replaces the
// committer's SVER entry and installs a new P array, and must survive
// later appends to L that reuse the backing array beyond the snapshot.
func TestReplyUnaffectedByDirectHandlerMutations(t *testing.T) {
	const n = 3
	server := NewServer(n)
	submit := func(from int, t64 int64) *wire.Reply {
		return server.HandleSubmit(context.Background(), from, &wire.Submit{
			T: t64,
			Inv: wire.Invocation{
				Client: from, Op: wire.OpWrite, Reg: from,
				SubmitSig: []byte(fmt.Sprintf("sig-%d-%d", from, t64)),
			},
			Value: []byte(fmt.Sprintf("v-%d-%d", from, t64)),
		})
	}

	// Build up L = [c0, c1] and capture a reply whose snapshot holds both.
	submit(0, 1)
	submit(1, 1)
	captured := submit(2, 1) // sees L = [c0's tuple, c1's tuple]
	if len(captured.L) != 2 {
		t.Fatalf("captured reply has %d tuples in L, want 2", len(captured.L))
	}
	enc := wire.Encode(captured)

	// Mutation 1: append to L (same backing array, beyond the snapshot).
	submit(0, 2)
	// Mutation 2: a commit with a larger version truncates L, replaces
	// SVER[1] and installs a new P — the structures the snapshot aliases.
	ver := version.New(n)
	ver.V[1] = 1
	ver.M[1] = bytes.Repeat([]byte{0xAB}, crypto.HashSize)
	server.HandleCommit(context.Background(), 1, &wire.Commit{Ver: ver, CommitSig: []byte("phi")})
	// Mutation 3: more traffic on the truncated L.
	submit(1, 2)
	submit(2, 2)

	if got := wire.Encode(captured); !bytes.Equal(got, enc) {
		t.Fatalf("captured reply changed after direct handler mutations:\n  captured: %x\n  now:      %x", enc, got)
	}
}

// TestConcurrentClientsRaceStress hammers one server with 8 concurrent
// clients over the in-memory network (run under -race in CI). The client
// goroutines race against the dispatcher and against each other while the
// COW snapshots flow out of the critical section; any write-through into a
// handed-out reply is a data race the detector flags.
func TestConcurrentClientsRaceStress(t *testing.T) {
	const n, opsPer = 8, 40
	tc := newCluster(t, n)
	var wg sync.WaitGroup
	for i, c := range tc.clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			for k := 0; k < opsPer; k++ {
				if k%3 == 0 {
					if _, err := c.Read((i + k) % n); err != nil {
						t.Errorf("client %d read: %v", i, err)
						return
					}
				} else if err := c.Write([]byte(fmt.Sprintf("c%d-%d", i, k))); err != nil {
					t.Errorf("client %d write: %v", i, err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for i, c := range tc.clients {
		if failed, reason := c.Failed(); failed {
			t.Fatalf("client %d failed under concurrency: %v", i, reason)
		}
	}
}

// TestConcurrentDirectHandlersRaceStress bypasses the transport and calls
// the server's handlers from 8 goroutines at once — the server documents
// itself safe for concurrent handler calls — while each goroutine walks
// the COW snapshots (L, P, SVER) of the replies it receives. Run under
// -race this checks the mutex discipline and that snapshot readers never
// observe in-place mutation.
func TestConcurrentDirectHandlersRaceStress(t *testing.T) {
	const n, opsPer = 8, 60
	server := NewServer(n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 1; k <= opsPer; k++ {
				reply := server.HandleSubmit(context.Background(), g, &wire.Submit{
					T: int64(k),
					Inv: wire.Invocation{
						Client: g, Op: wire.OpWrite, Reg: g,
						SubmitSig: []byte{byte(g), byte(k)},
					},
					Value: []byte(fmt.Sprintf("g%d-%d", g, k)),
				})
				if reply == nil {
					t.Errorf("goroutine %d: nil reply", g)
					return
				}
				// Walk the snapshot while other goroutines mutate state.
				var sum int
				for _, inv := range reply.L {
					sum += inv.Client + len(inv.SubmitSig)
				}
				for _, p := range reply.P {
					sum += len(p.Hash) + len(p.Sig)
				}
				sum += len(reply.CVer.Ver.V)
				_ = sum
				ver := version.New(n)
				ver.V[g] = int64(k)
				server.HandleCommit(context.Background(), g, &wire.Commit{Ver: ver, CommitSig: []byte{byte(g), byte(k)}})
			}
		}(g)
	}
	wg.Wait()
}
