package store

import (
	"context"
	"fmt"
	"sync"

	"faust/internal/obs/trace"
	"faust/internal/wire"
)

// Core is the server state machine the store can persist: the ServerCore
// handlers plus state export/import. ustor.Server implements it; any
// deterministic core with the same message interface can be persisted the
// same way.
type Core interface {
	HandleSubmit(ctx context.Context, from int, s *wire.Submit) *wire.Reply
	HandleCommit(ctx context.Context, from int, c *wire.Commit)
	ExportState() []byte
	RestoreState(state []byte) error
}

// Options configures a Persistent server.
type Options struct {
	// SnapshotEvery takes a snapshot after that many logged records,
	// bounding both recovery replay time and WAL size. Zero disables
	// automatic snapshots; Snapshot can still be called explicitly.
	SnapshotEvery int
}

// Persistent wraps a Core with write-ahead logging: every SUBMIT and
// COMMIT is appended to the backend before it is applied, so the applied
// state never runs ahead of the log. It implements transport.BatchCore
// and drops in wherever a plain server is served.
//
// An operation is durable when the dispatcher batch that applied it ends:
// the dispatcher calls FlushBatch once per batch that touched this core,
// whether with SUBMITs or COMMITs, and withholds the batch's REPLYs until
// the flush succeeds. No client therefore observes an operation recovery
// cannot replay, and a COMMIT reaches the disk when its own batch ends,
// not when some later SUBMIT happens to flush. A COMMIT lost to a crash
// before that point is lost like one still in flight on the link: the
// committing client's next operation reports the server faulty
// (Algorithm 1 line 36) instead of accepting the rollback.
//
// If the backend ever fails to append or flush, the server stops replying
// (nil REPLYs) rather than serve operations it cannot make durable — to
// the clients this is indistinguishable from a crashed server, which is
// the honest signal: wait-freedom is lost, integrity is not.
type Persistent struct {
	mu      sync.Mutex
	core    Core
	backend Backend
	opts    Options

	sinceSnap int
	broken    error // sticky persistence failure

	recoveredSnapshot bool
	recoveredRecords  int
}

// Open recovers the core's state from the backend — newest snapshot, then
// WAL tail replay — and returns the persistent wrapper ready to serve.
func Open(core Core, backend Backend, opts Options) (*Persistent, error) {
	state, tail, err := backend.Load()
	if err != nil {
		return nil, fmt.Errorf("store: loading backend: %w", err)
	}
	if state != nil {
		if err := core.RestoreState(state); err != nil {
			return nil, fmt.Errorf("store: restoring snapshot: %w", err)
		}
	}
	for i, rec := range tail {
		switch m := rec.Msg.(type) {
		case *wire.Submit:
			core.HandleSubmit(context.Background(), rec.From, m)
		case *wire.Commit:
			core.HandleCommit(context.Background(), rec.From, m)
		default:
			return nil, fmt.Errorf("store: WAL record %d: %w", i, ErrBadRecord)
		}
	}
	return &Persistent{
		core:              core,
		backend:           backend,
		opts:              opts,
		recoveredSnapshot: state != nil,
		recoveredRecords:  len(tail),
	}, nil
}

// Recovered reports what Open found: whether a snapshot was restored and
// how many WAL records were replayed on top of it.
func (p *Persistent) Recovered() (fromSnapshot bool, replayed int) {
	return p.recoveredSnapshot, p.recoveredRecords
}

// N reports the wrapped core's client-group size, or -1 when the core does
// not expose one. The TCP transport uses it to reject handshake IDs
// outside [0, N) before they can occupy connection-table entries.
func (p *Persistent) N() int {
	if sized, ok := p.core.(interface{ N() int }); ok {
		return sized.N()
	}
	return -1
}

// HandleSubmit implements transport.ServerCore: HandleSubmitBuffered
// followed by FlushBatch, so the reply never escapes before its record is
// durable.
func (p *Persistent) HandleSubmit(ctx context.Context, from int, s *wire.Submit) *wire.Reply {
	reply := p.HandleSubmitBuffered(ctx, from, s)
	if err := p.FlushBatch(); err != nil {
		return nil
	}
	return reply
}

// HandleSubmitBuffered implements transport.BatchCore: it logs and applies
// the SUBMIT but leaves the backend flush to a later FlushBatch call, so a
// whole dispatcher batch shares one fsync. The caller MUST withhold the
// returned reply until FlushBatch succeeds. A nil reply means this op must
// not be acknowledged regardless of the flush outcome.
func (p *Persistent) HandleSubmitBuffered(ctx context.Context, from int, s *wire.Submit) *wire.Reply {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken != nil {
		return nil
	}
	_, ha := trace.Child(ctx, "wal.append")
	err := p.backend.Append(Record{From: from, Msg: s})
	ha.End()
	if err != nil {
		p.broken = err
		return nil
	}
	reply := p.core.HandleSubmit(ctx, from, s)
	p.bumpLocked()
	if p.broken != nil { // snapshot rotation failed: stay silent
		return nil
	}
	return reply
}

// FlushBatch implements transport.BatchCore: it makes every record logged
// since the last flush durable, SUBMITs and COMMITs alike. On failure the
// wrapper goes sticky-broken, and the caller must suppress every reply
// the failed batch produced.
func (p *Persistent) FlushBatch() error {
	p.mu.Lock()
	if p.broken != nil {
		err := p.broken
		p.mu.Unlock()
		return err
	}
	p.mu.Unlock()
	// Flush outside p.mu: the backend coalesces concurrent flushes itself,
	// so appends arriving while a sync is in flight buffer behind it
	// instead of serializing on the wrapper lock.
	if err := p.backend.Flush(); err != nil {
		p.mu.Lock()
		p.broken = err
		p.mu.Unlock()
		return err
	}
	return nil
}

// HandleCommit implements transport.ServerCore: log, then apply. The
// record becomes durable at the next FlushBatch, which the dispatcher
// issues when the COMMIT's batch ends.
func (p *Persistent) HandleCommit(ctx context.Context, from int, c *wire.Commit) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken != nil {
		return
	}
	if err := p.backend.Append(Record{From: from, Msg: c}); err != nil {
		p.broken = err
		return
	}
	p.core.HandleCommit(ctx, from, c)
	p.bumpLocked()
}

// bumpLocked counts one logged record and rotates a snapshot when due.
func (p *Persistent) bumpLocked() {
	p.sinceSnap++
	if p.opts.SnapshotEvery > 0 && p.sinceSnap >= p.opts.SnapshotEvery {
		if err := p.snapshotLocked(); err != nil {
			p.broken = err
		}
	}
}

func (p *Persistent) snapshotLocked() error {
	if err := p.backend.WriteSnapshot(p.core.ExportState()); err != nil {
		return err
	}
	p.sinceSnap = 0
	return nil
}

// Snapshot forces a snapshot rotation now, e.g. before a graceful
// shutdown so the next boot replays nothing.
func (p *Persistent) Snapshot() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken != nil {
		return p.broken
	}
	return p.snapshotLocked()
}

// ExportState returns the wrapped core's current state. Exposed so tests
// and operators can compare pre-crash and post-recovery state.
func (p *Persistent) ExportState() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.core.ExportState()
}

// Err returns the sticky persistence failure, if any.
func (p *Persistent) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.broken
}

// Close closes the backend. It does NOT snapshot: closing mid-workload
// must look exactly like a crash so recovery is exercised honestly; call
// Snapshot first for a fast next boot.
func (p *Persistent) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.backend.Close()
}
