package faustproto

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"faust/internal/byzantine"
	"faust/internal/crypto"
	"faust/internal/obs"
	"faust/internal/offline"
	"faust/internal/transport"
	"faust/internal/ustor"
)

// These tests pin the observability contract of the protocol events:
// stable_i and fail_i notifications are mirrored into the injected
// obs.EventLog exactly once each, in a sequence consistent with the
// callbacks, with non-decreasing timestamps — on the in-memory transport
// and over real TCP.

// checkEventOrdering asserts seq strictly increases and timestamps never
// go backwards across the snapshot.
func checkEventOrdering(t *testing.T, events []obs.Event) {
	t.Helper()
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("event %d: seq %d after %d", i, events[i].Seq, events[i-1].Seq)
		}
		if events[i].Time.Before(events[i-1].Time) {
			t.Fatalf("event %d: time %v before predecessor %v", i, events[i].Time, events[i-1].Time)
		}
	}
}

func eventsOf(events []obs.Event, client int, kind obs.EventKind) []obs.Event {
	var out []obs.Event
	for _, e := range events {
		if e.Client == client && e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

func TestStableEventsMatchCallbacks(t *testing.T) {
	// Online path, memory transport: every stable_i(W) callback has
	// exactly one stability-cut-advance event, in the same order with the
	// same cut.
	elog := obs.NewEventLog(obs.DefaultEventCap)
	var mu sync.Mutex
	cuts := make(map[int][][]int64)
	cl := newCluster(t, 3, nil, fastConfig(true), WithEventLog(elog))
	for i, c := range cl.clients {
		i := i
		c.onStable = func(w []int64) {
			mu.Lock()
			cuts[i] = append(cuts[i], append([]int64(nil), w...))
			mu.Unlock()
		}
	}
	cl.startAll()
	ts, err := cl.clients[0].Write([]byte("observe me"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.clients[0].WaitStable(ts, waitLong); err != nil {
		t.Fatalf("never stable: %v", err)
	}
	// Quiesce before snapshotting: no background machinery, no new events.
	for _, c := range cl.clients {
		c.Stop()
	}

	events := elog.Snapshot()
	checkEventOrdering(t, events)
	if got := elog.Total(obs.EventFail); got != 0 {
		t.Fatalf("correct server produced %d fail events", got)
	}
	if got := elog.Total(obs.EventFork); got != 0 {
		t.Fatalf("correct server produced %d fork events", got)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range cl.clients {
		evs := eventsOf(events, i, obs.EventStabilityCut)
		if len(evs) != len(cuts[i]) {
			t.Fatalf("client %d: %d stability events, %d callbacks", i, len(evs), len(cuts[i]))
		}
		for k, e := range evs {
			if want := fmt.Sprintf("W=%v", cuts[i][k]); e.Detail != want {
				t.Fatalf("client %d event %d: detail %q, callback cut %q", i, k, e.Detail, want)
			}
		}
	}
	if len(eventsOf(events, 0, obs.EventStabilityCut)) == 0 {
		t.Fatal("writer advanced to stability without a single stability-cut event")
	}
}

func TestFailEventsExactlyOnce(t *testing.T) {
	// Forking server, memory transport: every client emits fail_i exactly
	// once, the event log says so too, and the client that detected the
	// fork itself logged the fork-detected evidence BEFORE its fail event.
	const n = 2
	server, err := byzantine.NewForkingServer(n, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	elog := obs.NewEventLog(obs.DefaultEventCap)
	var mu sync.Mutex
	failCalls := make(map[int]int)
	cl := newCluster(t, n, server, fastConfig(false), WithEventLog(elog))
	for i, c := range cl.clients {
		i := i
		c.onFail = func(error) {
			mu.Lock()
			failCalls[i]++
			mu.Unlock()
		}
	}
	cl.startAll()
	if _, err := cl.clients[0].Write([]byte("branch-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.clients[1].Write([]byte("branch-b")); err != nil {
		t.Fatal(err)
	}
	for i, c := range cl.clients {
		if err := c.WaitFail(waitLong); err != nil {
			t.Fatalf("client %d did not fail: %v", i, err)
		}
	}
	for _, c := range cl.clients {
		c.Stop()
	}

	events := elog.Snapshot()
	checkEventOrdering(t, events)
	mu.Lock()
	defer mu.Unlock()
	if int64(n) != elog.Total(obs.EventFail) {
		t.Fatalf("fail events = %d, want %d", elog.Total(obs.EventFail), n)
	}
	var firstFailSeq uint64
	for i := 0; i < n; i++ {
		if failCalls[i] != 1 {
			t.Fatalf("client %d: onFail called %d times", i, failCalls[i])
		}
		fails := eventsOf(events, i, obs.EventFail)
		if len(fails) != 1 {
			t.Fatalf("client %d: %d fail events, want exactly 1", i, len(fails))
		}
		if firstFailSeq == 0 || fails[0].Seq < firstFailSeq {
			firstFailSeq = fails[0].Seq
		}
	}
	// The FIRST failure in the system came from someone's own detection
	// (not a broadcast), so a fork/rollback event must precede it. Later
	// detection events may trail a client's fail (it can learn of the
	// failure via broadcast first and confirm the evidence afterwards).
	detected := false
	for _, e := range events {
		if (e.Kind == obs.EventFork || e.Kind == obs.EventRollback) && e.Seq < firstFailSeq {
			detected = true
		}
	}
	if !detected {
		t.Fatal("no fork/rollback detection event precedes the first fail event")
	}
}

// tcpCluster runs FAUST clients against a core served over real TCP.
func tcpCluster(t *testing.T, n int, core transport.ServerCore, cfg Config, opts ...Option) *cluster {
	t.Helper()
	ring, signers := crypto.NewTestKeyring(n, 42)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.ServeTCP(ln, core)
	hub := offline.NewHub(n)
	cl := &cluster{hub: hub, clients: make([]*Client, n)}
	for i := 0; i < n; i++ {
		link, err := transport.DialTCPShard(ln.Addr().String(), "", i)
		if err != nil {
			t.Fatal(err)
		}
		allOpts := append([]Option{WithConfig(cfg)}, opts...)
		cl.clients[i] = NewClient(i, ring, signers[i], link, hub.Endpoint(i), allOpts...)
	}
	t.Cleanup(func() {
		for _, c := range cl.clients {
			c.Stop()
		}
		srv.Stop()
		hub.Stop()
	})
	return cl
}

func TestEventSemanticsOverTCP(t *testing.T) {
	// The same two contracts over a real TCP transport: stability events
	// flow with a correct server, and a forked pair fails exactly once
	// each with ordered events.
	t.Run("stable", func(t *testing.T) {
		elog := obs.NewEventLog(obs.DefaultEventCap)
		cl := tcpCluster(t, 2, ustor.NewServer(2), fastConfig(true), WithEventLog(elog))
		cl.startAll()
		ts, err := cl.clients[0].Write([]byte("over tcp"))
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.clients[0].WaitStable(ts, waitLong); err != nil {
			t.Fatalf("never stable: %v", err)
		}
		for _, c := range cl.clients {
			c.Stop()
		}
		events := elog.Snapshot()
		checkEventOrdering(t, events)
		if len(eventsOf(events, 0, obs.EventStabilityCut)) == 0 {
			t.Fatal("no stability-cut event for the writer")
		}
		if elog.Total(obs.EventFail) != 0 {
			t.Fatal("spurious fail event with a correct server")
		}
	})
	t.Run("fail", func(t *testing.T) {
		const n = 2
		server, err := byzantine.NewForkingServer(n, [][]int{{0}, {1}})
		if err != nil {
			t.Fatal(err)
		}
		elog := obs.NewEventLog(obs.DefaultEventCap)
		cl := tcpCluster(t, n, server, fastConfig(false), WithEventLog(elog))
		cl.startAll()
		if _, err := cl.clients[0].Write([]byte("a")); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.clients[1].Write([]byte("b")); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(waitLong)
		for i, c := range cl.clients {
			if err := c.WaitFail(time.Until(deadline)); err != nil {
				t.Fatalf("client %d did not fail: %v", i, err)
			}
		}
		for _, c := range cl.clients {
			c.Stop()
		}
		events := elog.Snapshot()
		checkEventOrdering(t, events)
		if elog.Total(obs.EventFail) != n {
			t.Fatalf("fail events = %d, want %d", elog.Total(obs.EventFail), n)
		}
		for i := 0; i < n; i++ {
			if len(eventsOf(events, i, obs.EventFail)) != 1 {
				t.Fatalf("client %d: fail event not exactly-once", i)
			}
		}
	})
}
