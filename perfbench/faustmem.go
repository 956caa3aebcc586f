package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"faust/internal/crypto"
	"faust/internal/faustproto"
	"faust/internal/offline"
	"faust/internal/transport"
	"faust/internal/ustor"
	"faust/internal/workload"
)

// faust-mem: the in-process FAUST service faust.NewTestService builds —
// ustor.NewServer behind transport.NewNetwork, an offline.Hub, and n=8
// faustproto clients with DefaultConfig — assembled from those public
// parts so the traced run can wrap them. Two goroutines each alternate
// over four clients; 50% reads of uniformly chosen registers, 64-byte
// values.
const (
	fmClients   = 8
	fmValueSize = 64
	fmReadFrac  = 0.5
	// fmDrain bounds how long, after load stops, every write may take to
	// become stable w.r.t. all clients (dummy reads every 50 ms and
	// probes after 200 ms of silence make it well under a second).
	fmDrain = 10 * time.Second
)

type faustMem struct {
	e       *env
	nw      *transport.Network
	hub     *offline.Hub
	clients []*faustproto.Client
	streams []*workload.Stream
	stab    []*stability
	next    [2]int // per goroutine: which of its clients goes next
	fails   failures
}

// stability tracks one client's writes until its stability cut covers
// them for every client, timing the lag from the write's return.
type stability struct {
	mu      sync.Mutex
	cut     int64 // min_j W[j]: every own op up to cut is stable w.r.t. all
	pending []pendingWrite
	lags    latencies
}

type pendingWrite struct {
	t        int64
	returned int64
	measured bool
}

func (s *stability) onStable(w []int64) {
	m := w[0]
	for _, x := range w[1:] {
		if x < m {
			m = x
		}
	}
	at := now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if m <= s.cut { // callbacks may arrive out of order
		return
	}
	s.cut = m
	i := 0
	for ; i < len(s.pending) && s.pending[i].t <= m; i++ {
		if p := s.pending[i]; p.measured {
			s.lags = append(s.lags, at-p.returned)
		}
	}
	s.pending = s.pending[i:]
}

func (s *stability) wrote(t, returned int64, measured bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t <= s.cut {
		if measured {
			s.lags = append(s.lags, 0)
		}
		return
	}
	s.pending = append(s.pending, pendingWrite{t, returned, measured})
}

func (s *stability) unstable() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// faustMemOps generates faust-mem's op streams, one per client.
func faustMemOps(seed int64) *workload.Workload {
	return workload.New(fmClients, workload.Config{ReadFraction: fmReadFrac, ValueSize: fmValueSize, Seed: seed})
}

func setupFaustMem(e *env) (instance, error) {
	ring, signers := crypto.NewTestKeyring(fmClients, e.seed)
	var core transport.ServerCore = ustor.NewServer(fmClients)
	if e.tr != nil {
		var err error
		if core, err = wrapOuterCore(e.tr, core); err != nil {
			return nil, err
		}
	}
	f := &faustMem{e: e, nw: transport.NewNetwork(fmClients, core), hub: offline.NewHub(fmClients)}
	wl := faustMemOps(e.seed)
	for i := 0; i < fmClients; i++ {
		var link transport.Link = f.nw.ClientLink(i)
		var ep offline.Channel = f.hub.Endpoint(i)
		if e.tr != nil {
			link = &linkWrap{tr: e.tr, inner: link, client: int32(i)}
			ep = &offlineWrap{Channel: ep, tr: e.tr}
		}
		st := &stability{}
		c := faustproto.NewClient(i, ring, signers[i], link, ep,
			faustproto.WithConfig(faustproto.DefaultConfig()),
			faustproto.WithStableHandler(st.onStable),
			faustproto.WithFailHandler(f.fails.add))
		c.Start()
		f.clients = append(f.clients, c)
		f.streams = append(f.streams, wl.Stream(i))
		f.stab = append(f.stab, st)
	}
	return f, nil
}

func regObj(j int) string { return fmt.Sprintf("r%d", j) }

func (f *faustMem) step(g int, l *lane) bool {
	per := fmClients / 2
	i := g*per + f.next[g]
	f.next[g] = (f.next[g] + 1) % per
	c := f.clients[i]
	op := f.streams[i].Next()
	if op.IsWrite {
		tok, err := f.e.hist.beginWrite(regObj(i), op.Value)
		if err != nil {
			l.violate(err)
			return false
		}
		ot := l.begin(i)
		ts, err := c.Write(op.Value)
		l.end(ot, kWrite, ts, err)
		if err != nil {
			return false
		}
		f.e.hist.endWrite(tok)
		f.stab[i].wrote(ts, now(), ot.measured)
		return true
	}
	ot := l.begin(i)
	val, ts, err := c.Read(op.Reg)
	l.end(ot, kRead, ts, err)
	if err != nil {
		return false
	}
	if err := f.e.hist.checkRead(regObj(op.Reg), ot.start, val); err != nil {
		l.violate(err)
	}
	return true
}

func (f *faustMem) finish(r *result) error {
	defer f.close()
	var errs []error
	deadline := time.Now().Add(fmDrain)
	for i, s := range f.stab {
		for s.unstable() > 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := s.unstable(); n > 0 {
			errs = append(errs, fmt.Errorf("client %d: %d writes not stable w.r.t. all clients %v after load stopped", i, n, fmDrain))
		}
		r.stableLagNs = append(r.stableLagNs, s.lags...)
	}
	r.stableLagNs = r.stableLagNs.sorted()
	for i, c := range f.clients {
		if failed, err := c.Failed(); failed {
			errs = append(errs, fmt.Errorf("client %d output fail against an honest server: %v", i, err))
		}
	}
	return errors.Join(append(errs, f.fails.all()...)...)
}

func (f *faustMem) close() {
	for _, c := range f.clients {
		c.Stop()
	}
	f.nw.Stop()
	f.hub.Stop()
}
