package main

import (
	"fmt"
	"sync"
	"time"

	"faust/internal/store"
	"faust/internal/transport"
	"faust/internal/ustor"
)

// The WAL workloads' server is a USTOR core under store.Persistent, which
// logs every SUBMIT and COMMIT through the record codec before applying
// it, flushes before every reply (once per batch on the dispatcher's
// group-commit path) and rotates a snapshot every 1024 logged records, as
// faust-server's persistent shards do. The log is a store.MemBackend, not
// a FileBackend: the benchmark may write only inside its checkout, which
// lives on a shared virtual disk, and there even unsynced WAL and snapshot
// files made ops/s vary by 0.17-0.26 (interquartile range over median)
// between runs of the same code, against 0.05-0.07 in memory. Device
// latency is not something this machine can measure steadily.
var walStoreOptions = store.Options{SnapshotEvery: 1024}

// durable is one persistent USTOR server.
type durable struct {
	raw  *ustor.Server
	log  *store.MemBackend
	ps   *store.Persistent
	core transport.ServerCore // what the transport dispatches to: ps, or its wrapper
}

// openDurable opens a persistent server for n clients; a traced run wraps
// the backend, the USTOR core inside the Persistent wrapper and the
// Persistent wrapper itself.
func openDurable(tr *tracer, n int) (*durable, error) {
	d := &durable{raw: ustor.NewServer(n), log: store.NewMemBackend()}
	var backend store.Backend = d.log
	var core store.Core = d.raw
	if tr != nil {
		backend = &backendWrap{tr: tr, inner: d.log}
		core = &ustorWrap{tr: tr, inner: d.raw}
	}
	var err error
	if d.ps, err = store.Open(core, backend, walStoreOptions); err != nil {
		return nil, err
	}
	d.core = d.ps
	if tr != nil {
		if d.core, err = wrapOuterCore(tr, d.ps); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// quiesce waits until the server has applied every outstanding COMMIT,
// so stopping it drops no acknowledged operation's commit.
func (d *durable) quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for d.raw.PendingOps() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("server still has %d uncommitted operations %v after load stopped", d.raw.PendingOps(), timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// failures collects fail notifications from USTOR clients.
type failures struct {
	mu   sync.Mutex
	errs []error
}

func (f *failures) add(err error) {
	f.mu.Lock()
	f.errs = append(f.errs, err)
	f.mu.Unlock()
}

func (f *failures) all() []error {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]error, len(f.errs))
	for i, err := range f.errs {
		out[i] = fmt.Errorf("fail notification against an honest server: %w", err)
	}
	return out
}
