// Package byzantine implements faulty servers mounting the attacks the
// paper analyzes. All of them satisfy transport.ServerCore and can be
// dropped into any cluster in place of the correct server:
//
//   - ForkingServer: the canonical forking attack. Clients are split into
//     partitions; each partition is served by an independent correct
//     server, so the partitions' views diverge silently. USTOR alone
//     cannot detect the fork (that is inherent — forking semantics);
//     FAUST's offline version exchange must. Captured SUBMIT messages can
//     be replayed into other branches, which makes hidden operations
//     selectively visible and realizes the Figure 3 attack exactly.
//   - ReplyTamperServer: a correct server whose replies pass through an
//     arbitrary corruption function. Used to exercise every client-side
//     check of Algorithm 1.
//   - CrashServer: stops replying after a configurable number of
//     operations (a crash-faulty, not malicious, server). Operations
//     block; FAUST's offline probing keeps stability detection alive.
//   - DropCommitServer: discards COMMIT messages, pretending operations
//     never finished.
package byzantine

import (
	"context"
	"fmt"
	"sync"

	"faust/internal/transport"
	"faust/internal/ustor"
	"faust/internal/wire"
)

// ForkingServer serves each partition of clients from an independent
// correct USTOR server, creating diverging views.
type ForkingServer struct {
	mu       sync.Mutex
	n        int
	branchOf []int
	branches []*ustor.Server
	captured map[int][]*wire.Submit // per client, submits in order
}

var _ transport.ServerCore = (*ForkingServer)(nil)

// NewForkingServer creates a forking server for n clients. partition
// lists the client sets of each branch; every client must appear exactly
// once.
func NewForkingServer(n int, partition [][]int) (*ForkingServer, error) {
	f := &ForkingServer{
		n:        n,
		branchOf: make([]int, n),
		captured: make(map[int][]*wire.Submit),
	}
	for i := range f.branchOf {
		f.branchOf[i] = -1
	}
	for b, clients := range partition {
		f.branches = append(f.branches, ustor.NewServer(n))
		for _, c := range clients {
			if c < 0 || c >= n {
				return nil, fmt.Errorf("byzantine: client %d out of range", c)
			}
			if f.branchOf[c] != -1 {
				return nil, fmt.Errorf("byzantine: client %d in two partitions", c)
			}
			f.branchOf[c] = b
		}
	}
	for c, b := range f.branchOf {
		if b == -1 {
			return nil, fmt.Errorf("byzantine: client %d not in any partition", c)
		}
	}
	return f, nil
}

// HandleSubmit routes the submit to the client's branch and captures it
// for potential replay into other branches.
func (f *ForkingServer) HandleSubmit(ctx context.Context, from int, s *wire.Submit) *wire.Reply {
	f.mu.Lock()
	branch := f.branches[f.branchOf[from]]
	f.captured[from] = append(f.captured[from], s)
	f.mu.Unlock()
	return branch.HandleSubmit(ctx, from, s)
}

// HandleCommit routes the commit to the client's branch.
func (f *ForkingServer) HandleCommit(ctx context.Context, from int, c *wire.Commit) {
	f.mu.Lock()
	branch := f.branches[f.branchOf[from]]
	f.mu.Unlock()
	branch.HandleCommit(ctx, from, c)
}

// Replay feeds the opIndex-th captured SUBMIT of client into the given
// branch, making that single operation visible there without its COMMIT —
// the mechanism behind the Figure 3 attack. The branch's reply is
// discarded (the real client never sees it).
func (f *ForkingServer) Replay(client, opIndex, branch int) error {
	f.mu.Lock()
	subs := f.captured[client]
	if opIndex < 0 || opIndex >= len(subs) {
		f.mu.Unlock()
		return fmt.Errorf("byzantine: client %d has no captured op %d", client, opIndex)
	}
	if branch < 0 || branch >= len(f.branches) {
		f.mu.Unlock()
		return fmt.Errorf("byzantine: branch %d out of range", branch)
	}
	b := f.branches[branch]
	s := subs[opIndex]
	f.mu.Unlock()
	b.HandleSubmit(context.Background(), client, s)
	return nil
}

// CapturedOps returns how many SUBMITs of the client were captured.
func (f *ForkingServer) CapturedOps(client int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.captured[client])
}

// ReplyTamperServer wraps an inner server and passes every reply through
// Tamper. A nil return silences the server for that operation.
type ReplyTamperServer struct {
	Inner transport.ServerCore
	// Tamper may mutate and return the reply, return a different reply,
	// or return nil to drop it. It runs on the dispatcher goroutine.
	Tamper func(from int, r *wire.Reply) *wire.Reply
}

var _ transport.ServerCore = (*ReplyTamperServer)(nil)

// HandleSubmit delegates and then tampers. The reply is deep-cloned
// before it reaches Tamper: the correct server hands out copy-on-write
// snapshots aliasing its live state, and a tamper that mutated those in
// place would corrupt the inner server for every client instead of lying
// to this one.
func (t *ReplyTamperServer) HandleSubmit(ctx context.Context, from int, s *wire.Submit) *wire.Reply {
	r := t.Inner.HandleSubmit(ctx, from, s)
	if r == nil || t.Tamper == nil {
		return r
	}
	return t.Tamper(from, r.Clone())
}

// HandleCommit delegates.
func (t *ReplyTamperServer) HandleCommit(ctx context.Context, from int, c *wire.Commit) {
	t.Inner.HandleCommit(ctx, from, c)
}

// CrashServer behaves correctly for the first Limit submits, then crashes
// silently: no replies, no state changes.
type CrashServer struct {
	mu    sync.Mutex
	inner *ustor.Server
	seen  int

	// Limit is the number of submits served before the crash.
	Limit int
}

var _ transport.ServerCore = (*CrashServer)(nil)

// NewCrashServer creates a server that crashes after limit submits.
func NewCrashServer(n, limit int) *CrashServer {
	return &CrashServer{inner: ustor.NewServer(n), Limit: limit}
}

// HandleSubmit serves until the crash point, then goes silent.
func (c *CrashServer) HandleSubmit(ctx context.Context, from int, s *wire.Submit) *wire.Reply {
	c.mu.Lock()
	c.seen++
	crashed := c.seen > c.Limit
	c.mu.Unlock()
	if crashed {
		return nil
	}
	return c.inner.HandleSubmit(ctx, from, s)
}

// HandleCommit is dropped after the crash point.
func (c *CrashServer) HandleCommit(ctx context.Context, from int, m *wire.Commit) {
	c.mu.Lock()
	crashed := c.seen > c.Limit
	c.mu.Unlock()
	if crashed {
		return
	}
	c.inner.HandleCommit(ctx, from, m)
}

// DropCommitServer forwards submits to a correct server but discards all
// COMMIT messages, so the schedule appears to contain only uncommitted
// operations. Clients detect this on their next operations (no commit
// proving a concurrent client's previous operation at line 41, or their
// own operation listed as concurrent).
type DropCommitServer struct {
	inner *ustor.Server
}

var _ transport.ServerCore = (*DropCommitServer)(nil)

// NewDropCommitServer creates the commit-dropping server.
func NewDropCommitServer(n int) *DropCommitServer {
	return &DropCommitServer{inner: ustor.NewServer(n)}
}

// HandleSubmit delegates to the correct server.
func (d *DropCommitServer) HandleSubmit(ctx context.Context, from int, s *wire.Submit) *wire.Reply {
	return d.inner.HandleSubmit(ctx, from, s)
}

// HandleCommit silently discards the commit.
func (d *DropCommitServer) HandleCommit(context.Context, int, *wire.Commit) {}
