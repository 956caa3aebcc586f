// Faust-bench regenerates the paper-level experiments (E5-E14) plus the
// system-growth experiments this repo added (E15 persistence, E16
// concurrent throughput, E17 multi-tenant sharding, E18 the KV layer,
// E19 tree directories, E20 latency tails and metrics overhead, E21
// blob-fleet failover, E22 batched dispatch)
// and prints one table per experiment.
// Unlike the testing.B benchmarks in bench_test.go (micro-level,
// statistics via the Go tooling), this harness prints the shaped tables
// the reproduction is judged against: who wins, by what factor, where the
// crossovers are.
//
// Run all experiments:
//
//	go run ./cmd/faust-bench
//
// Run a subset:
//
//	go run ./cmd/faust-bench -run rounds,msgsize,waitfree
//
// Machine-readable output for trajectory tracking: -json <file> appends
// one JSON record per measured row, {"experiment","n","ns_per_op",
// "bytes_per_op","allocs_per_op"} plus an optional {"value","unit"} pair
// for non-latency metrics, so successive runs across PRs can be compared
// (the BENCH_*.json files). Every experiment emits records.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"faust/internal/blobfleet"
	"faust/internal/byzantine"
	"faust/internal/crypto"
	"faust/internal/faustproto"
	"faust/internal/kv"
	"faust/internal/lockstep"
	"faust/internal/obs"
	"faust/internal/obs/trace"
	"faust/internal/offline"
	"faust/internal/shard"
	"faust/internal/sim"
	"faust/internal/store"
	"faust/internal/transport"
	"faust/internal/trusted"
	"faust/internal/ustor"
	"faust/internal/wire"
	"faust/internal/workload"
)

type experiment struct {
	name string
	desc string
	run  func()
}

// benchResult is one machine-readable measurement row, written by -json.
// Timing experiments fill ns_per_op (plus the alloc columns when they go
// through measured); experiments whose headline metric is not a latency
// (message counts, wire bytes, throughput) carry it in value/unit so the
// schema stays stable across PRs.
type benchResult struct {
	Experiment  string  `json:"experiment"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Value       float64 `json:"value,omitempty"`
	Unit        string  `json:"unit,omitempty"`
	// Latency-tail columns, filled by experiments that sample per-op
	// latencies (E20): exact quantiles over the sorted sample set.
	P50Ns  float64 `json:"p50_ns,omitempty"`
	P99Ns  float64 `json:"p99_ns,omitempty"`
	P999Ns float64 `json:"p999_ns,omitempty"`
}

// results collects every measured row of the run; experiments append via
// measured, recordNs or recordValue — every experiment emits at least
// one row, so BENCH_*.json captures the full perf history.
var results []benchResult

// recordNs appends a plain latency row (no allocation accounting).
func recordNs(experiment string, n int, nsPerOp float64) {
	results = append(results, benchResult{Experiment: experiment, N: n, NsPerOp: nsPerOp})
}

// recordValue appends a non-latency metric row.
func recordValue(experiment string, n int, value float64, unit string) {
	results = append(results, benchResult{Experiment: experiment, N: n, Value: value, Unit: unit})
}

// measured times f over ops operations and records wall time plus heap
// allocation per operation (process-wide, like testing.B -benchmem). The
// duration is returned for the human-readable tables.
func measured(experiment string, n, ops int, f func()) time.Duration {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	f()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	results = append(results, benchResult{
		Experiment:  experiment,
		N:           n,
		NsPerOp:     float64(d.Nanoseconds()) / float64(ops),
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
	})
	return d
}

// writeJSON appends the collected rows to path, one JSON object per line,
// so successive runs accumulate a comparable trajectory.
func writeJSON(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range results {
		if err := enc.Encode(r); err != nil {
			_ = f.Close()
			return err
		}
	}
	return f.Close()
}

// quick trims the heavyweight experiments (E19's 10k-key sweep) for CI
// smoke runs.
var quick bool

func main() {
	runFlag := flag.String("run", "", "comma-separated experiment names (default: all)")
	jsonFlag := flag.String("json", "", "append machine-readable results to this file (one JSON record per row)")
	benchOut := flag.String("bench-out", "", "append this run's records to a trajectory file (conventionally BENCH_kv.json) tracked across PRs; may be combined with -json")
	flag.BoolVar(&quick, "quick", false, "trim heavyweight sweeps (CI smoke mode)")
	traceSample := flag.Int("trace-sample", 0, "enable tracing, retaining 1 in N traces by head sampling (0 = tracing off)")
	traceSlow := flag.Duration("trace-slow", 0, "enable tracing, always retaining traces at least this slow")
	flag.Parse()

	if *traceSample > 0 || *traceSlow > 0 {
		trace.SetEnabled(true)
		trace.Configure(*traceSample, *traceSlow)
	}

	experiments := []experiment{
		{"rounds", "E5: message rounds per operation (paper: exactly one)", expRounds},
		{"msgsize", "E6: message size vs number of clients (paper: O(n))", expMsgSize},
		{"latency", "E7: operation latency with a correct server (wait-free path)", expLatency},
		{"waitfree", "E8: USTOR vs lock-step baseline with a crashed writer", expWaitFree},
		{"contention", "E8b: throughput under contention, USTOR vs lock-step", expContention},
		{"detection", "E11: fork-detection latency vs probe timeout", expDetection},
		{"stability", "E13: stability latency, online (dummy reads) vs offline (probes)", expStability},
		{"overhead", "E14: throughput of trusted vs USTOR vs FAUST vs lock-step", expOverhead},
		{"crypto", "E12: cryptographic cost per operation", expCrypto},
		{"persist", "E15: durability cost — in-memory vs WAL-logged server (fsync off/on)", expPersist},
		{"throughput", "E16: concurrent multi-client throughput, in-memory vs fsync'd WAL", expThroughput},
		{"multishard", "E17: multi-tenant shard scaling over TCP vs a single register group", expMultiShard},
		{"kv", "E18: authenticated KV layer — value-size and key-count sweeps, cache ablation", expKV},
		{"kvtree", "E19: O(log n) directories — Put/GetFrom cost vs key count, Merkle tree vs flat ablation", expKVTree},
		{"lattail", "E20: latency tails (p50/p99/p999) under concurrent load, and the cost of metrics", expLatencyTail},
		{"failover", "E21: blob-fleet failover — KV workload survives the primary's death; degraded vs recovered tails, tampered-replica ablation", expFailover},
		{"batch", "E22: batched apply/flush dispatch — ops/sec and tails vs batch cap and client count, one-op batches (cap=1) ablation", expBatch},
	}

	want := map[string]bool{}
	if *runFlag != "" {
		for _, name := range strings.Split(*runFlag, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}
	for _, e := range experiments {
		if len(want) > 0 && !want[e.name] {
			continue
		}
		fmt.Printf("\n=== %s — %s ===\n", e.name, e.desc)
		e.run()
	}
	fmt.Println()
	for _, path := range []string{*jsonFlag, *benchOut} {
		if path == "" {
			continue
		}
		if err := writeJSON(path); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d benchmark records to %s\n", len(results), path)
	}
}

// expRounds counts messages per operation: the paper claims a single
// round (SUBMIT -> REPLY) plus an asynchronous COMMIT.
func expRounds() {
	const n, ops = 4, 200
	cl := sim.NewCluster(n, sim.Options{NetOpts: []transport.Option{transport.WithMetrics()}})
	w := workload.New(n, workload.Config{ReadFraction: 0.5, ValueSize: 64, Seed: 1})
	if err := cl.RunWorkload(w, ops); err != nil {
		fail(err)
	}
	st := cl.Net.Stats()
	cl.Stop()
	total := int64(n * ops)
	fmt.Printf("%-28s %10s %14s %12s\n", "metric", "count", "per operation", "paper")
	fmt.Printf("%-28s %10d %14.3f %12s\n", "server->client messages", st.ServerToClientMsgs,
		float64(st.ServerToClientMsgs)/float64(total), "1.000")
	fmt.Printf("%-28s %10d %14.3f %12s\n", "client->server messages", st.ClientToServerMsgs,
		float64(st.ClientToServerMsgs)/float64(total), "2.000 (SUBMIT+COMMIT)")
	recordValue("rounds/server-to-client", n, float64(st.ServerToClientMsgs)/float64(total), "msgs/op")
	recordValue("rounds/client-to-server", n, float64(st.ClientToServerMsgs)/float64(total), "msgs/op")
}

// expMsgSize measures encoded message sizes as n grows; the paper claims
// O(n) communication overhead per request.
func expMsgSize() {
	fmt.Printf("%-6s %14s %14s %14s %16s\n", "n", "avg c->s B", "avg s->c B", "total B/op", "(total/op)/n")
	type row struct {
		n     int
		ratio float64
	}
	var rows []row
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		const opsPer = 20
		cl := sim.NewCluster(n, sim.Options{NetOpts: []transport.Option{transport.WithMetrics()}})
		w := workload.New(n, workload.Config{ReadFraction: 0.5, ValueSize: 64, Seed: 2})
		if err := cl.RunWorkload(w, opsPer); err != nil {
			fail(err)
		}
		st := cl.Net.Stats()
		cl.Stop()
		ops := float64(n * opsPer)
		cs := float64(st.ClientToServerBytes) / float64(st.ClientToServerMsgs)
		sc := float64(st.ServerToClientBytes) / float64(st.ServerToClientMsgs)
		perOp := float64(st.ClientToServerBytes+st.ServerToClientBytes) / ops
		rows = append(rows, row{n, perOp / float64(n)})
		recordValue("msgsize/total", n, perOp, "bytes/op")
		fmt.Printf("%-6d %14.1f %14.1f %14.1f %16.1f\n", n, cs, sc, perOp, perOp/float64(n))
	}
	first, last := rows[0], rows[len(rows)-1]
	fmt.Printf("linearity check: (bytes/op)/n at n=%d is %.1f, at n=%d is %.1f — flat ratio indicates O(n)\n",
		first.n, first.ratio, last.n, last.ratio)
}

// expLatency measures operation latency against a correct server.
func expLatency() {
	fmt.Printf("%-6s %12s %12s\n", "n", "write us/op", "read us/op")
	for _, n := range []int{2, 4, 8, 16} {
		cl := sim.NewCluster(n, sim.Options{})
		const ops = 300
		writeLat := measured("latency/write", n, ops, func() {
			for i := 0; i < ops; i++ {
				if err := cl.Write(0, []byte(fmt.Sprintf("v%d", i))); err != nil {
					fail(err)
				}
			}
		})
		readLat := measured("latency/read", n, ops, func() {
			for i := 0; i < ops; i++ {
				if _, err := cl.Read(0, (i%(n-1))+1); err != nil {
					fail(err)
				}
			}
		})
		cl.Stop()
		fmt.Printf("%-6d %12.1f %12.1f\n", n,
			float64(writeLat.Microseconds())/ops, float64(readLat.Microseconds())/ops)
	}
}

// expWaitFree is the paper's headline: with a writer crashed between
// SUBMIT and COMMIT, USTOR reads finish; lock-step reads block forever.
func expWaitFree() {
	const n = 3
	ring, signers := crypto.NewTestKeyring(n, 3)

	// USTOR: crash client 0 mid-operation, then measure client 1 reads.
	usrv := ustor.NewServer(n)
	unet := transport.NewNetwork(n, usrv)
	link0 := unet.ClientLink(0)
	xhash := crypto.Hash([]byte("w"))
	sigma := signers[0].Sign(crypto.DomainSubmit, wire.SubmitPayload(wire.OpWrite, 0, 1, xhash))
	_ = link0.Send(&wire.Submit{T: 1, Inv: wire.Invocation{Client: 0, Op: wire.OpWrite, Reg: 0, SubmitSig: sigma, XHash: xhash}, Value: []byte("w")})
	_, _ = link0.Recv() // REPLY consumed; COMMIT never sent: client 0 is dead
	c1 := ustor.NewClient(1, ring, signers[1], unet.ClientLink(1))
	const reads = 200
	start := time.Now()
	for i := 0; i < reads; i++ {
		if _, err := c1.Read(0); err != nil {
			fail(err)
		}
	}
	ustorLat := time.Since(start) / reads
	unet.Stop()

	// Lock-step: same crash; a single read blocks until timeout.
	lsrv := lockstep.NewServer(n)
	lnet := transport.NewNetwork(n, lsrv)
	lc0 := lockstep.NewClient(0, ring, signers[0], lnet.ClientLink(0))
	lc1 := lockstep.NewClient(1, ring, signers[1], lnet.ClientLink(1))
	if err := lc0.WriteCrashBeforeCommit([]byte("w")); err != nil {
		fail(err)
	}
	done := make(chan struct{})
	go func() {
		_, _ = lc1.Read(0)
		close(done)
	}()
	const patience = 2 * time.Second
	var lockstepResult string
	select {
	case <-done:
		lockstepResult = "completed (unexpected!)"
	case <-time.After(patience):
		lockstepResult = fmt.Sprintf("BLOCKED (> %v, would block forever)", patience)
	}
	lnet.Stop()

	fmt.Printf("%-34s %s\n", "protocol", "read latency with crashed writer")
	fmt.Printf("%-34s %v\n", "USTOR (this paper, wait-free)", ustorLat)
	fmt.Printf("%-34s %s\n", "lock-step (fork-linearizable)", lockstepResult)
	recordNs("waitfree/ustor-read-crashed-writer", n, float64(ustorLat.Nanoseconds()))
}

// expContention compares throughput with all clients active: lock-step
// serializes globally, USTOR does not wait for other clients.
func expContention() {
	const n, opsPer = 4, 150
	ring, signers := crypto.NewTestKeyring(n, 4)

	runUstor := func() time.Duration {
		srv := ustor.NewServer(n)
		net := transport.NewNetwork(n, srv)
		defer net.Stop()
		clients := make([]*ustor.Client, n)
		for i := range clients {
			clients[i] = ustor.NewClient(i, ring, signers[i], net.ClientLink(i))
		}
		start := time.Now()
		done := make(chan error, n)
		for c := 0; c < n; c++ {
			go func(c int) {
				for i := 0; i < opsPer; i++ {
					if err := clients[c].Write([]byte(fmt.Sprintf("c%d-%d", c, i))); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}(c)
		}
		for c := 0; c < n; c++ {
			if err := <-done; err != nil {
				fail(err)
			}
		}
		return time.Since(start)
	}
	runLockstep := func() time.Duration {
		srv := lockstep.NewServer(n)
		net := transport.NewNetwork(n, srv)
		defer net.Stop()
		clients := make([]*lockstep.Client, n)
		for i := range clients {
			clients[i] = lockstep.NewClient(i, ring, signers[i], net.ClientLink(i))
		}
		start := time.Now()
		done := make(chan error, n)
		for c := 0; c < n; c++ {
			go func(c int) {
				for i := 0; i < opsPer; i++ {
					if err := clients[c].Write([]byte(fmt.Sprintf("c%d-%d", c, i))); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}(c)
		}
		for c := 0; c < n; c++ {
			if err := <-done; err != nil {
				fail(err)
			}
		}
		return time.Since(start)
	}

	u := runUstor()
	l := runLockstep()
	total := n * opsPer
	fmt.Printf("%-34s %12s %14s\n", "protocol", "total time", "ops/sec")
	fmt.Printf("%-34s %12v %14.0f\n", "USTOR", u.Round(time.Millisecond), float64(total)/u.Seconds())
	fmt.Printf("%-34s %12v %14.0f\n", "lock-step", l.Round(time.Millisecond), float64(total)/l.Seconds())
	recordNs("contention/ustor", n, float64(u.Nanoseconds())/float64(total))
	recordNs("contention/lockstep", n, float64(l.Nanoseconds())/float64(total))
}

// expDetection measures time from the fork becoming material to all
// clients outputting fail, as a function of the probe timeout.
func expDetection() {
	fmt.Printf("%-16s %18s\n", "probe timeout", "detection latency")
	for _, probe := range []time.Duration{20 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond} {
		const n = 2
		server, err := byzantine.NewForkingServer(n, [][]int{{0}, {1}})
		if err != nil {
			fail(err)
		}
		ring, signers := crypto.NewTestKeyring(n, 5)
		net := transport.NewNetwork(n, server)
		hub := offline.NewHub(n)
		cfg := faustproto.Config{ProbeTimeout: probe, PollInterval: probe / 4, DisableDummyReads: true}
		clients := make([]*faustproto.Client, n)
		for i := 0; i < n; i++ {
			clients[i] = faustproto.NewClient(i, ring, signers[i], net.ClientLink(i), hub.Endpoint(i), faustproto.WithConfig(cfg))
			clients[i].Start()
		}
		if _, err := clients[0].Write([]byte("a")); err != nil {
			fail(err)
		}
		if _, err := clients[1].Write([]byte("b")); err != nil {
			fail(err)
		}
		start := time.Now()
		for _, c := range clients {
			if err := c.WaitFail(30 * time.Second); err != nil {
				fail(err)
			}
		}
		lat := time.Since(start)
		for _, c := range clients {
			c.Stop()
		}
		net.Stop()
		hub.Stop()
		recordNs(fmt.Sprintf("detection/probe=%v", probe), n, float64(lat.Nanoseconds()))
		fmt.Printf("%-16v %18v\n", probe, lat.Round(time.Millisecond))
	}
}

// expStability measures time from an operation's completion to its
// stability w.r.t. all clients, via the online path (dummy reads through
// the live server) and the offline path (server crashed; PROBE/VERSION).
func expStability() {
	const n = 3
	measure := func(core transport.ServerCore, dummyReads bool, preOps func(cl []*faustproto.Client)) time.Duration {
		ring, signers := crypto.NewTestKeyring(n, 6)
		net := transport.NewNetwork(n, core)
		hub := offline.NewHub(n)
		cfg := faustproto.Config{
			ProbeTimeout:      40 * time.Millisecond,
			PollInterval:      10 * time.Millisecond,
			DisableDummyReads: !dummyReads,
		}
		clients := make([]*faustproto.Client, n)
		for i := 0; i < n; i++ {
			clients[i] = faustproto.NewClient(i, ring, signers[i], net.ClientLink(i), hub.Endpoint(i), faustproto.WithConfig(cfg))
			clients[i].Start()
		}
		defer func() {
			for _, c := range clients {
				c.Stop()
			}
			net.Stop()
			hub.Stop()
		}()
		if preOps != nil {
			preOps(clients)
		}
		ts, err := clients[0].Write([]byte("measure-me"))
		if err != nil {
			fail(err)
		}
		start := time.Now()
		if err := clients[0].WaitStable(ts, 30*time.Second); err != nil {
			fail(err)
		}
		return time.Since(start)
	}

	online := measure(ustor.NewServer(n), true, nil)
	// Offline path: the server crashes right after the value propagates.
	crash := byzantine.NewCrashServer(n, 4)
	offlinePath := measure(crash, false, func(cl []*faustproto.Client) {
		if _, _, err := cl[1].Read(0); err != nil {
			fail(err)
		}
		if _, _, err := cl[2].Read(0); err != nil {
			fail(err)
		}
	})
	_ = offlinePath

	fmt.Printf("%-44s %14s\n", "path", "latency")
	fmt.Printf("%-44s %14v\n", "online (dummy reads via live server)", online.Round(time.Millisecond))
	fmt.Printf("%-44s %14v\n", "offline (server crashed; PROBE/VERSION)", offlinePath.Round(time.Millisecond))
	recordNs("stability/online", n, float64(online.Nanoseconds()))
	recordNs("stability/offline", n, float64(offlinePath.Nanoseconds()))
}

// expOverhead compares throughput across the protocol stack.
func expOverhead() {
	const n, opsPer = 4, 100
	ring, signers := crypto.NewTestKeyring(n, 8)

	bench := func(run func(c, i int) error) float64 {
		start := time.Now()
		done := make(chan error, n)
		for c := 0; c < n; c++ {
			go func(c int) {
				for i := 0; i < opsPer; i++ {
					if err := run(c, i); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}(c)
		}
		for c := 0; c < n; c++ {
			if err := <-done; err != nil {
				fail(err)
			}
		}
		return float64(n*opsPer) / time.Since(start).Seconds()
	}

	// Trusted.
	tnet := transport.NewNetwork(n, trusted.NewServer(n))
	tclients := make([]*trusted.Client, n)
	for i := range tclients {
		tclients[i] = trusted.NewClient(i, n, tnet.ClientLink(i))
	}
	tOps := bench(func(c, i int) error { return tclients[c].Write([]byte(fmt.Sprintf("c%d-%d", c, i))) })
	tnet.Stop()

	// USTOR.
	unet := transport.NewNetwork(n, ustor.NewServer(n))
	uclients := make([]*ustor.Client, n)
	for i := range uclients {
		uclients[i] = ustor.NewClient(i, ring, signers[i], unet.ClientLink(i))
	}
	uOps := bench(func(c, i int) error { return uclients[c].Write([]byte(fmt.Sprintf("c%d-%d", c, i))) })
	unet.Stop()

	// FAUST (full stack with background machinery).
	fnet := transport.NewNetwork(n, ustor.NewServer(n))
	hub := offline.NewHub(n)
	cfg := faustproto.Config{ProbeTimeout: 100 * time.Millisecond, PollInterval: 25 * time.Millisecond}
	fclients := make([]*faustproto.Client, n)
	for i := range fclients {
		fclients[i] = faustproto.NewClient(i, ring, signers[i], fnet.ClientLink(i), hub.Endpoint(i), faustproto.WithConfig(cfg))
		fclients[i].Start()
	}
	fOps := bench(func(c, i int) error {
		_, err := fclients[c].Write([]byte(fmt.Sprintf("c%d-%d", c, i)))
		return err
	})
	for _, c := range fclients {
		c.Stop()
	}
	fnet.Stop()
	hub.Stop()

	// Lock-step.
	lnet := transport.NewNetwork(n, lockstep.NewServer(n))
	lclients := make([]*lockstep.Client, n)
	for i := range lclients {
		lclients[i] = lockstep.NewClient(i, ring, signers[i], lnet.ClientLink(i))
	}
	lOps := bench(func(c, i int) error { return lclients[c].Write([]byte(fmt.Sprintf("c%d-%d", c, i))) })
	lnet.Stop()

	fmt.Printf("%-34s %14s %12s\n", "protocol", "writes/sec", "vs trusted")
	fmt.Printf("%-34s %14.0f %12s\n", "trusted (no crypto)", tOps, "1.00x")
	fmt.Printf("%-34s %14.0f %11.2fx\n", "USTOR", uOps, tOps/uOps)
	fmt.Printf("%-34s %14.0f %11.2fx\n", "FAUST (USTOR + detection)", fOps, tOps/fOps)
	fmt.Printf("%-34s %14.0f %11.2fx\n", "lock-step (fork-linearizable)", lOps, tOps/lOps)
	recordValue("overhead/trusted", n, tOps, "ops/sec")
	recordValue("overhead/ustor", n, uOps, "ops/sec")
	recordValue("overhead/faust", n, fOps, "ops/sec")
	recordValue("overhead/lockstep", n, lOps, "ops/sec")
}

// expCrypto reports the cost of the cryptographic primitives per
// operation: 2 signatures by the client (SUBMIT, COMMIT), and 1-3
// verifications plus one per concurrent operation.
func expCrypto() {
	ring, signers := crypto.NewTestKeyring(2, 9)

	// Distinct payloads: a keyring answers a re-check of a signature it
	// already accepted from its cache, so each is verified exactly once.
	const iters = 500
	payloads := make([][]byte, iters)
	sigs := make([][]byte, iters)
	xhash := crypto.Hash([]byte("w"))
	for i := range payloads {
		payloads[i] = wire.SubmitPayload(wire.OpWrite, 0, int64(i+1), xhash)
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		sigs[i] = signers[0].Sign(crypto.DomainSubmit, payloads[i])
	}
	signT := time.Since(start) / iters

	start = time.Now()
	for i := 0; i < iters; i++ {
		if !ring.Verify(0, sigs[i], crypto.DomainSubmit, payloads[i]) {
			fail(fmt.Errorf("verification failed"))
		}
	}
	verifyT := time.Since(start) / iters

	start = time.Now()
	buf := make([]byte, 64)
	for i := 0; i < iters; i++ {
		_ = crypto.Hash(buf)
	}
	hashT := time.Since(start) / iters

	fmt.Printf("%-24s %12s\n", "primitive", "time")
	fmt.Printf("%-24s %12v\n", "Ed25519 sign", signT)
	fmt.Printf("%-24s %12v\n", "Ed25519 verify", verifyT)
	fmt.Printf("%-24s %12v\n", "SHA-256 (64 B)", hashT)
	recordNs("crypto/sign", 2, float64(signT.Nanoseconds()))
	recordNs("crypto/verify", 2, float64(verifyT.Nanoseconds()))
	recordNs("crypto/hash-64B", 2, float64(hashT.Nanoseconds()))
	fmt.Printf("per write op: 2 signs (SUBMIT,COMMIT) ~ %v; per read reply verify: >=2 ~ %v\n",
		2*signT, 2*verifyT)
}

// expPersist measures what durability costs: the same concurrent write
// workload against a plain in-memory server, a WAL-logged server on a
// MemBackend (codec cost only), a FileBackend without fsync (process-crash
// durability) and a FileBackend with fsync (power-loss durability).
func expPersist() {
	const n, opsPer = 4, 150
	ring, signers := crypto.NewTestKeyring(n, 10)

	run := func(experiment string, core transport.ServerCore) time.Duration {
		net := transport.NewNetwork(n, core)
		defer net.Stop()
		clients := make([]*ustor.Client, n)
		for i := range clients {
			clients[i] = ustor.NewClient(i, ring, signers[i], net.ClientLink(i))
		}
		return measured(experiment, n, n*opsPer, func() {
			done := make(chan error, n)
			for c := 0; c < n; c++ {
				go func(c int) {
					for i := 0; i < opsPer; i++ {
						if err := clients[c].Write([]byte(fmt.Sprintf("c%d-%d", c, i))); err != nil {
							done <- err
							return
						}
					}
					done <- nil
				}(c)
			}
			for c := 0; c < n; c++ {
				if err := <-done; err != nil {
					fail(err)
				}
			}
		})
	}

	runPersistent := func(experiment string, backend store.Backend) time.Duration {
		ps, err := store.Open(ustor.NewServer(n), backend, store.Options{SnapshotEvery: 256})
		if err != nil {
			fail(err)
		}
		d := run(experiment, ps)
		if err := ps.Close(); err != nil {
			fail(err)
		}
		return d
	}
	var tmpDirs []string
	defer func() {
		for _, d := range tmpDirs {
			_ = os.RemoveAll(d)
		}
	}()
	fileBackend := func(fsync bool) store.Backend {
		dir, err := os.MkdirTemp("", "faust-bench-persist")
		if err != nil {
			fail(err)
		}
		tmpDirs = append(tmpDirs, dir)
		b, err := store.OpenFile(dir, fsync)
		if err != nil {
			fail(err)
		}
		return b
	}

	type row struct {
		name string
		d    time.Duration
	}
	rows := []row{
		{"in-memory (no persistence)", run("persist/mem", ustor.NewServer(n))},
		{"WAL, MemBackend (codec only)", runPersistent("persist/wal-mem", store.NewMemBackend())},
		{"WAL, FileBackend, fsync off", runPersistent("persist/wal-file", fileBackend(false))},
		{"WAL, FileBackend, fsync on", runPersistent("persist/wal-file-fsync", fileBackend(true))},
	}
	total := float64(n * opsPer)
	base := rows[0].d.Seconds()
	fmt.Printf("%-34s %14s %12s\n", "server", "writes/sec", "vs memory")
	for _, r := range rows {
		fmt.Printf("%-34s %14.0f %11.2fx\n", r.name, total/r.d.Seconds(), r.d.Seconds()/base)
	}
}

// expThroughput measures aggregate multi-client throughput over a
// read/write mix — the sustained-load number the ROADMAP tracks — against
// an in-memory server and an fsync'd WAL server.
func expThroughput() {
	const opsPer = 200
	run := func(experiment string, m int, readFrac float64, core transport.ServerCore) float64 {
		ring, signers := crypto.NewTestKeyring(m, 11)
		net := transport.NewNetwork(m, core)
		defer net.Stop()
		clients := make([]*ustor.Client, m)
		for i := range clients {
			clients[i] = ustor.NewClient(i, ring, signers[i], net.ClientLink(i))
		}
		w := workload.New(m, workload.Config{ReadFraction: readFrac, ValueSize: 64, Seed: 12})
		for i, c := range clients { // seed registers so reads return values
			if err := c.Write(w.Stream(i).NextWrite().Value); err != nil {
				fail(err)
			}
		}
		d := measured(experiment, m, m*opsPer, func() {
			done := make(chan error, m)
			for c := 0; c < m; c++ {
				go func(c int) {
					s := w.Stream(c)
					for i := 0; i < opsPer; i++ {
						op := s.Next()
						var err error
						if op.IsWrite {
							err = clients[c].Write(op.Value)
						} else {
							_, err = clients[c].Read(op.Reg)
						}
						if err != nil {
							done <- err
							return
						}
					}
					done <- nil
				}(c)
			}
			for c := 0; c < m; c++ {
				if err := <-done; err != nil {
					fail(err)
				}
			}
		})
		return float64(m*opsPer) / d.Seconds()
	}

	fmt.Printf("%-10s %-10s %16s %22s\n", "clients", "reads", "memory ops/sec", "wal fsync ops/sec")
	for _, tc := range []struct {
		m        int
		readFrac float64
	}{{4, 0.5}, {8, 0.5}, {8, 0.9}} {
		mem := run(fmt.Sprintf("throughput/mem/reads=%.0f%%", tc.readFrac*100), tc.m, tc.readFrac, ustor.NewServer(tc.m))

		dir, err := os.MkdirTemp("", "faust-bench-throughput")
		if err != nil {
			fail(err)
		}
		backend, err := store.OpenFile(dir, true)
		if err != nil {
			fail(err)
		}
		ps, err := store.Open(ustor.NewServer(tc.m), backend, store.Options{SnapshotEvery: 4096})
		if err != nil {
			fail(err)
		}
		wal := run(fmt.Sprintf("throughput/wal-gc/reads=%.0f%%", tc.readFrac*100), tc.m, tc.readFrac, ps)
		_ = ps.Close()
		_ = os.RemoveAll(dir)

		fmt.Printf("%-10d %-10s %16.0f %22.0f\n", tc.m, fmt.Sprintf("%.0f%%", tc.readFrac*100), mem, wal)
	}
}

// expMultiShard is E17: the same total client population (16 identities)
// served as one big register group vs. partitioned into independent
// tenants, over a real TCP loopback server. More shards means smaller
// groups (O(n) messages shrink) AND parallel dispatchers — the two levers
// multi-tenant sharding pulls.
func expMultiShard() {
	const totalClients = 16
	const opsPer = 120

	run := func(label string, shards int) float64 {
		per := totalClients / shards
		ring, signers := crypto.NewTestKeyring(per, 13)
		specs := make([]shard.Spec, shards)
		for s := range specs {
			specs[s] = shard.Spec{Name: fmt.Sprintf("tenant-%d", s), N: per}
		}
		router, err := shard.NewRouter(specs, shard.Options{})
		if err != nil {
			fail(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail(err)
		}
		srv := transport.ServeTCPSharded(ln, router)
		defer srv.Stop()

		clients := make([]*ustor.Client, 0, totalClients)
		for s := range specs {
			for i := 0; i < per; i++ {
				link, err := transport.DialTCPShard(ln.Addr().String(), specs[s].Name, i)
				if err != nil {
					fail(err)
				}
				clients = append(clients, ustor.NewClient(i, ring, signers[i], link))
			}
		}
		d := measured("multishard/"+label, shards, totalClients*opsPer, func() {
			done := make(chan error, len(clients))
			for c, cl := range clients {
				go func(c int, cl *ustor.Client) {
					for i := 0; i < opsPer; i++ {
						if err := cl.Write([]byte(fmt.Sprintf("c%d-%d", c, i))); err != nil {
							done <- err
							return
						}
					}
					done <- nil
				}(c, cl)
			}
			for range clients {
				if err := <-done; err != nil {
					fail(err)
				}
			}
		})
		for _, cl := range clients {
			_ = cl.Close()
		}
		return float64(totalClients*opsPer) / d.Seconds()
	}

	type row struct {
		name string
		ops  float64
	}
	rows := []row{
		{"1 shard x 16 clients (single group)", run("shards=1", 1)},
		{"2 shards x 8 clients", run("shards=2", 2)},
		{"4 shards x 4 clients", run("shards=4", 4)},
	}
	base := rows[0].ops
	fmt.Printf("(%d total clients, %d writes each, TCP loopback, GOMAXPROCS=%d)\n",
		totalClients, opsPer, runtime.GOMAXPROCS(0))
	fmt.Printf("%-42s %14s %12s\n", "configuration", "agg ops/sec", "vs 1 shard")
	for _, r := range rows {
		fmt.Printf("%-42s %14.0f %11.2fx\n", r.name, r.ops, r.ops/base)
	}
}

// expKV is E18: the authenticated key-value workload. Part 1 sweeps the
// value size at a fixed key count — puts pay chunk uploads plus one
// register write, fresh cross-client gets pay one register read plus
// verified chunk fetches, and the two cache tiers peel those costs off
// (GetFrom reuses verified chunks, CachedGetFrom skips the server
// entirely). Part 2 sweeps the key count at a fixed value size: the
// directory blob re-uploaded per put grows with the namespace, which is
// exactly the O(keys) cost the sweep makes visible. Part 3 runs the
// mixed KV workload (workload.NewKV) over several clients.
func expKV() {
	newKVPair := func(chunkSize int) (owner, reader *kv.Store, stop func()) {
		const n = 2
		ring, signers := crypto.NewTestKeyring(n, 18)
		nw := transport.NewNetwork(n, ustor.NewServer(n), transport.WithBlobStore(transport.NewMemBlobs()))
		open := func(i int) *kv.Store {
			ch, err := nw.BlobChannel()
			if err != nil {
				fail(err)
			}
			st, err := kv.Open(ustor.NewClient(i, ring, signers[i], nw.ClientLink(i)), ch, kv.WithChunkSize(chunkSize))
			if err != nil {
				fail(err)
			}
			return st
		}
		return open(0), open(1), nw.Stop
	}
	value := func(size, salt int) []byte {
		v := make([]byte, size)
		for i := range v {
			v[i] = byte((i + salt*131) % 251)
		}
		return v
	}

	// Part 1: value-size sweep (chunk size 64 KiB — the largest size
	// splits into 4 chunks).
	const keys, ops = 32, 60
	fmt.Printf("value-size sweep (%d keys, %d ops each, 64 KiB chunks):\n", keys, ops)
	fmt.Printf("%-10s %12s %12s %14s %14s %16s\n", "size", "put/s", "put MB/s", "getfrom/s", "getfrom MB/s", "cachedget/s")
	for _, size := range []int{256, 16 << 10, 256 << 10} {
		owner, reader, stop := newKVPair(64 << 10)
		key := func(i int) string { return fmt.Sprintf("key-%04d", i%keys) }
		// Values are synthesized OUTSIDE the measured regions so the
		// trajectory records time the KV layer, not the byte generator.
		values := make([][]byte, ops)
		for i := range values {
			values[i] = value(size, i)
		}

		putD := measured(fmt.Sprintf("kv/put/size=%d", size), 2, ops, func() {
			for i := 0; i < ops; i++ {
				if err := owner.Put(context.Background(), key(i), values[i]); err != nil {
					fail(err)
				}
			}
		})
		getD := measured(fmt.Sprintf("kv/getfrom/size=%d", size), 2, ops, func() {
			for i := 0; i < ops; i++ {
				if _, err := reader.GetFrom(context.Background(), 0, key(i)); err != nil {
					fail(err)
				}
			}
		})
		cachedD := measured(fmt.Sprintf("kv/cachedget/size=%d", size), 2, ops, func() {
			for i := 0; i < ops; i++ {
				if _, err := reader.CachedGetFrom(context.Background(), 0, key(i)); err != nil {
					fail(err)
				}
			}
		})
		stop()
		mbs := func(d time.Duration) float64 {
			return float64(size) * ops / d.Seconds() / (1 << 20)
		}
		recordValue(fmt.Sprintf("kv/put-bytes/size=%d", size), 2, mbs(putD), "MB/s")
		fmt.Printf("%-10s %12.0f %12.2f %14.0f %14.2f %16.0f\n",
			fmtSize(size), ops/putD.Seconds(), mbs(putD),
			ops/getD.Seconds(), mbs(getD), ops/cachedD.Seconds())
	}

	// Part 2: key-count sweep at 256-byte values — the per-put directory
	// cost, now O(log n) path uploads instead of the old O(n) blob
	// (E19 sweeps this head-to-head against the flat ablation).
	fmt.Printf("\nkey-count sweep (256 B values):\n")
	fmt.Printf("%-10s %12s %16s\n", "keys", "put/s", "dir bytes/put")
	for _, nk := range []int{16, 256, 1024} {
		owner, _, stop := newKVPair(64 << 10)
		// Fill the namespace (one batched commit), then measure
		// steady-state overwrites (values pre-generated; see above).
		items := make([]kv.Item, nk)
		for i := range items {
			items[i] = kv.Item{Key: workload.KeyName(i), Value: value(256, i)}
		}
		if err := owner.PutBatch(context.Background(), items); err != nil {
			fail(err)
		}
		const overwrites = 50
		ovalues := make([][]byte, overwrites)
		for i := range ovalues {
			ovalues[i] = value(256, nk+i)
		}
		before := owner.Stats()
		d := measured(fmt.Sprintf("kv/put-keys/keys=%d", nk), 2, overwrites, func() {
			for i := 0; i < overwrites; i++ {
				if err := owner.Put(context.Background(), workload.KeyName(i%nk), ovalues[i]); err != nil {
					fail(err)
				}
			}
		})
		after := owner.Stats()
		stop()
		// Directory cost per put = uploaded bytes minus the 256-byte
		// value chunk, measured from the store's own traffic counters.
		dirBytes := (after.BlobPutBytes-before.BlobPutBytes)/overwrites - 256
		fmt.Printf("%-10d %12.0f %16d\n", nk, overwrites/d.Seconds(), dirBytes)
	}

	// Part 3: mixed workload across 4 clients.
	const m, mixedOps = 4, 80
	ring, signers := crypto.NewTestKeyring(m, 19)
	nw := transport.NewNetwork(m, ustor.NewServer(m), transport.WithBlobStore(transport.NewMemBlobs()))
	defer nw.Stop()
	stores := make([]*kv.Store, m)
	for i := range stores {
		ch, err := nw.BlobChannel()
		if err != nil {
			fail(err)
		}
		st, err := kv.Open(ustor.NewClient(i, ring, signers[i], nw.ClientLink(i)), ch)
		if err != nil {
			fail(err)
		}
		stores[i] = st
	}
	w := workload.NewKV(m, workload.DefaultKVConfig())
	for i, st := range stores { // seed every namespace
		if op := w.Stream(i).NextPut(); st.Put(context.Background(), op.Key, op.Value) != nil {
			fail(fmt.Errorf("seed put failed"))
		}
	}
	d := measured("kv/mixed", m, m*mixedOps, func() {
		done := make(chan error, m)
		for c := 0; c < m; c++ {
			go func(c int) {
				s := w.Stream(c)
				for i := 0; i < mixedOps; i++ {
					var err error
					switch op := s.Next(); op.Kind {
					case workload.KVPut:
						err = stores[c].Put(context.Background(), op.Key, op.Value)
					case workload.KVGet:
						if _, err = stores[c].Get(context.Background(), op.Key); errors.Is(err, kv.ErrNotFound) {
							err = nil
						}
					case workload.KVGetFrom:
						if _, err = stores[c].GetFrom(context.Background(), op.Owner, op.Key); errors.Is(err, kv.ErrNotFound) {
							err = nil
						}
					case workload.KVDelete:
						if err = stores[c].Delete(context.Background(), op.Key); errors.Is(err, kv.ErrNotFound) {
							err = nil
						}
					}
					if err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}(c)
		}
		for c := 0; c < m; c++ {
			if err := <-done; err != nil {
				fail(err)
			}
		}
	})
	fmt.Printf("\nmixed workload (%d clients, 70%% reads, 25%% cross-namespace): %.0f ops/sec\n",
		m, float64(m*mixedOps)/d.Seconds())
}

// expKVTree is E19: the scaling claim of the Merkle-tree directory. The
// same KV code runs in two configurations — the default B+-tree fanout,
// and an effectively unbounded fanout that keeps the whole namespace in
// one leaf, which is byte-for-byte the old flat-directory design — over
// namespaces of growing key count. For each, it measures steady-state
// Put (chunk + dirty-path upload + root commit) and cold cross-client
// GetFrom (register read + full verified path, node cache disabled), in
// ns/op and blob bytes/op. Tree costs must grow sublinearly (O(log n)
// path) while flat costs grow linearly (O(n) directory per op); the
// acceptance bar is >=5x on both metrics at 10k keys.
func expKVTree() {
	keyCounts := []int{100, 1000, 10000}
	if quick {
		keyCounts = []int{100, 1000}
	}
	const valueSize = 32
	const ops = 40

	type cost struct {
		putNs, putBytes float64
		getNs, getBytes float64
	}
	run := func(mode string, nk int, opts ...kv.Option) cost {
		const n = 2
		ring, signers := crypto.NewTestKeyring(n, 19)
		nw := transport.NewNetwork(n, ustor.NewServer(n), transport.WithBlobStore(transport.NewMemBlobs()))
		defer nw.Stop()
		open := func(i int, extra ...kv.Option) *kv.Store {
			ch, err := nw.BlobChannel()
			if err != nil {
				fail(err)
			}
			st, err := kv.Open(ustor.NewClient(i, ring, signers[i], nw.ClientLink(i)), ch,
				append(append([]kv.Option(nil), opts...), extra...)...)
			if err != nil {
				fail(err)
			}
			return st
		}
		mkValue := func(tag string, i int) []byte {
			v := make([]byte, valueSize)
			copy(v, fmt.Sprintf("%s-%06d|", tag, i))
			return v
		}
		owner := open(0)
		items := make([]kv.Item, nk)
		for i := range items {
			items[i] = kv.Item{Key: workload.KeyName(i), Value: mkValue("v", i)}
		}
		if err := owner.PutBatch(context.Background(), items); err != nil {
			fail(err)
		}
		// Overwrite values pre-generated so the measured region times the
		// KV layer, not the byte generator.
		ovalues := make([][]byte, ops)
		for i := range ovalues {
			ovalues[i] = mkValue("w", nk+i)
		}

		var c cost
		before := owner.Stats()
		putD := measured(fmt.Sprintf("kvtree/put/mode=%s/keys=%d", mode, nk), nk, ops, func() {
			for i := 0; i < ops; i++ {
				if err := owner.Put(context.Background(), workload.KeyName((i*37)%nk), ovalues[i]); err != nil {
					fail(err)
				}
			}
		})
		after := owner.Stats()
		c.putNs = float64(putD.Nanoseconds()) / ops
		c.putBytes = float64(after.BlobPutBytes+after.BlobGetBytes-before.BlobPutBytes-before.BlobGetBytes) / ops
		recordValue(fmt.Sprintf("kvtree/put-bytes/mode=%s/keys=%d", mode, nk), nk, c.putBytes, "bytes/op")

		// Cold authenticated point reads: the reader's node cache is
		// disabled so every GetFrom fetches and verifies its full path —
		// the per-read cost a cache can only amortize, not remove.
		reader := open(1, kv.WithNodeCacheBudget(0))
		before = reader.Stats()
		getD := measured(fmt.Sprintf("kvtree/getfrom/mode=%s/keys=%d", mode, nk), nk, ops, func() {
			for i := 0; i < ops; i++ {
				if _, err := reader.GetFrom(context.Background(), 0, workload.KeyName((i*41)%nk)); err != nil {
					fail(err)
				}
			}
		})
		after = reader.Stats()
		c.getNs = float64(getD.Nanoseconds()) / ops
		c.getBytes = float64(after.BlobGetBytes-before.BlobGetBytes) / ops
		recordValue(fmt.Sprintf("kvtree/getfrom-bytes/mode=%s/keys=%d", mode, nk), nk, c.getBytes, "bytes/op")
		return c
	}

	fmt.Printf("(%d-byte values, %d ops per cell; flat = unbounded fanout ablation, tree = default fanout %d;\n"+
		" reader node cache disabled — cold verified point reads)\n", valueSize, ops, kv.DefaultLeafFanout)
	for _, nk := range keyCounts {
		flat := run("flat", nk, kv.WithTreeFanout(1<<20, 1<<20))
		tree := run("tree", nk)
		if nk == keyCounts[0] {
			fmt.Printf("%-8s %-6s | %12s %12s %9s | %14s %14s %9s\n",
				"keys", "mode", "put us/op", "put KB/op", "", "getfrom us/op", "getfrom KB/op", "")
		}
		fmt.Printf("%-8d %-6s | %12.1f %12.2f %9s | %14.1f %14.2f %9s\n",
			nk, "flat", flat.putNs/1e3, flat.putBytes/1024, "", flat.getNs/1e3, flat.getBytes/1024, "")
		fmt.Printf("%-8d %-6s | %12.1f %12.2f %8.1fx | %14.1f %14.2f %8.1fx\n",
			nk, "tree", tree.putNs/1e3, tree.putBytes/1024, flat.putNs/tree.putNs,
			tree.getNs/1e3, tree.getBytes/1024, flat.getNs/tree.getNs)
		fmt.Printf("%-8s %-6s | %25s %8.1fx | %29s %8.1fx   (bytes)\n",
			"", "", "", flat.putBytes/tree.putBytes, "", flat.getBytes/tree.getBytes)
	}
}

// expLatencyTail is E20: the tail behaviour the throughput experiment's
// single wall-clock number hides. It reruns the E16 concurrent
// read/write mix but timestamps EVERY operation, then reports exact
// p50/p99/p999 over the sorted samples — for the in-memory server, for
// the fsync'd WAL server (whose batching shows up as tail,
// not median), and for the in-memory server with observability disabled,
// which bounds what the always-on metrics cost on the hot path.
func expLatencyTail() {
	const m = 4
	opsPer := 400
	if quick {
		opsPer = 120
	}

	type tail struct {
		opsPerSec      float64
		p50, p99, p999 int64
		allocsPerOp    float64
		row            benchResult
	}
	run := func(experiment string, core transport.ServerCore, obsOn bool) tail {
		obs.SetEnabled(obsOn)
		defer obs.SetEnabled(true)
		ring, signers := crypto.NewTestKeyring(m, 20)
		nw := transport.NewNetwork(m, core)
		defer nw.Stop()
		clients := make([]*ustor.Client, m)
		for i := range clients {
			clients[i] = ustor.NewClient(i, ring, signers[i], nw.ClientLink(i))
		}
		w := workload.New(m, workload.Config{ReadFraction: 0.5, ValueSize: 64, Seed: 21})
		for i, c := range clients { // seed registers so reads return values
			if err := c.Write(w.Stream(i).NextWrite().Value); err != nil {
				fail(err)
			}
		}
		samples := make([][]int64, m)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		done := make(chan error, m)
		for c := 0; c < m; c++ {
			go func(c int) {
				s := w.Stream(c)
				lat := make([]int64, 0, opsPer)
				for i := 0; i < opsPer; i++ {
					op := s.Next()
					t0 := time.Now()
					var err error
					if op.IsWrite {
						err = clients[c].Write(op.Value)
					} else {
						_, err = clients[c].Read(op.Reg)
					}
					lat = append(lat, time.Since(t0).Nanoseconds())
					if err != nil {
						done <- err
						return
					}
				}
				samples[c] = lat
				done <- nil
			}(c)
		}
		for c := 0; c < m; c++ {
			if err := <-done; err != nil {
				fail(err)
			}
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)

		var all []int64
		for _, s := range samples {
			all = append(all, s...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		quantile := func(q float64) int64 {
			rank := int(q * float64(len(all)))
			if rank >= len(all) {
				rank = len(all) - 1
			}
			return all[rank]
		}
		total := m * opsPer
		t := tail{
			opsPerSec:   float64(total) / wall.Seconds(),
			p50:         quantile(0.50),
			p99:         quantile(0.99),
			p999:        quantile(0.999),
			allocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(total),
		}
		t.row = benchResult{
			Experiment:  experiment,
			N:           m,
			NsPerOp:     float64(wall.Nanoseconds()) / float64(total),
			BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(total),
			AllocsPerOp: t.allocsPerOp,
			P50Ns:       float64(t.p50),
			P99Ns:       float64(t.p99),
			P999Ns:      float64(t.p999),
		}
		return t
	}
	// Noise discipline: an untimed warm-up pass first (so the first
	// measured configuration doesn't absorb process start-up cost), then
	// best-of-N for the on/off pair, keeping the run with the LOWEST p50 —
	// a single 1600-op run on a shared (or single-core) machine is
	// dominated by scheduler noise, wall-clock throughput swings by double
	// digits run to run, and the least-disturbed run of each configuration
	// is the one whose median was hurt least. The overhead claim below is
	// computed from those medians, not from throughput, for the same
	// reason: a p50 is unaffected by a handful of multi-ms preemptions
	// that can swallow a whole run's wall clock.
	reps := 5
	if quick {
		reps = 3
	}
	bestOf := func(f func() tail) tail {
		best := f()
		for i := 1; i < reps; i++ {
			if t := f(); t.p50 < best.p50 {
				best = t
			}
		}
		return best
	}
	run("lattail/warmup", ustor.NewServer(m), true)
	mem := bestOf(func() tail { return run("lattail/mem", ustor.NewServer(m), true) })
	memOff := bestOf(func() tail { return run("lattail/mem-noobs", ustor.NewServer(m), false) })

	dir, err := os.MkdirTemp("", "faust-bench-lattail")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)
	backend, err := store.OpenFile(dir, true)
	if err != nil {
		fail(err)
	}
	ps, err := store.Open(ustor.NewServer(m), backend, store.Options{SnapshotEvery: 4096})
	if err != nil {
		fail(err)
	}
	wal := run("lattail/wal-gc", ps, true)
	_ = ps.Close()
	results = append(results, mem.row, memOff.row, wal.row)

	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	fmt.Printf("(%d clients, %d ops each, 50%% reads, per-op sampling)\n", m, opsPer)
	fmt.Printf("%-34s %12s %10s %10s %10s %10s\n", "configuration", "ops/sec", "p50 us", "p99 us", "p999 us", "allocs/op")
	for _, r := range []struct {
		name string
		t    tail
	}{
		{"in-memory, metrics on", mem},
		{"in-memory, metrics off", memOff},
		{"WAL fsync, metrics on", wal},
	} {
		fmt.Printf("%-34s %12.0f %10.1f %10.1f %10.1f %10.1f\n", r.name,
			r.t.opsPerSec, us(r.t.p50), us(r.t.p99), us(r.t.p999), r.t.allocsPerOp)
	}
	overhead := float64(mem.p50-memOff.p50) / float64(memOff.p50) * 100
	fmt.Printf("metrics overhead on the in-memory path: %.1f%% on p50 latency (target <= 2%%)\n", overhead)
	fmt.Printf("(environment-sensitive: on single-core or loaded machines the run-to-run\n" +
		" noise floor exceeds the target; judge the trend across runs, not one number)\n")
	recordValue("lattail/metrics-overhead", m, overhead, "%")
}

// fmtSize renders a byte count compactly for the E18 table.
func fmtSize(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "faust-bench: %v\n", err)
	os.Exit(1)
}

// expFailover is E21: the robustness claim of the blob failover fleet.
// A mixed KV workload (2 clients, cross-namespace reads) runs over a
// fleet of two in-memory backends, the primary wrapped in a fault
// injector. Mid-workload the primary is killed outright; the workload
// must keep running with ZERO client-visible errors while the fleet
// routes around the corpse (degraded phase), and after a probe
// resurrects the revived primary the tails must come back down
// (recovered phase). A second setup turns the primary byzantine
// (FlipRate=1): every read it serves fails content-hash verification,
// so the fleet must serve every blob from the honest secondary.
func expFailover() {
	const m = 2
	opsPer := 150
	if quick {
		opsPer = 50
	}

	ring, signers := crypto.NewTestKeyring(m, 23)
	primary := blobfleet.NewFaultyBlobs("primary", transport.NewMemBlobs(), blobfleet.FaultConfig{Seed: 1})
	fleet, err := blobfleet.New([]blobfleet.Backend{
		{Name: "primary", Store: primary},
		{Name: "secondary", Store: transport.NewMemBlobs()},
	}, blobfleet.Options{
		WriteReplicas: 2,
		ProbeInterval: -1, // phases drive ProbeNow explicitly
		RetryAttempts: 2,
		RetryBase:     200 * time.Microsecond,
		RetryCap:      time.Millisecond,
		Seed:          7,
	})
	if err != nil {
		fail(err)
	}
	defer fleet.Close()

	nw := transport.NewNetwork(m, ustor.NewServer(m), transport.WithBlobStore(fleet))
	defer nw.Stop()
	stores := make([]*kv.Store, m)
	for i := range stores {
		ch, err := nw.BlobChannel()
		if err != nil {
			fail(err)
		}
		st, err := kv.Open(ustor.NewClient(i, ring, signers[i], nw.ClientLink(i)), ch)
		if err != nil {
			fail(err)
		}
		stores[i] = st
	}
	w := workload.NewKV(m, workload.DefaultKVConfig())
	for i, st := range stores { // seed every namespace
		if op := w.Stream(i).NextPut(); st.Put(context.Background(), op.Key, op.Value) != nil {
			fail(fmt.Errorf("seed put failed"))
		}
	}

	// phase runs opsPer mixed KV ops per client, sampling per-op latency,
	// and records a tail row. Any operation error fails the experiment:
	// the whole claim is that backend faults stay invisible to clients.
	phase := func(name string) (opsPerSec float64, p50, p99, p999 int64) {
		samples := make([][]int64, m)
		start := time.Now()
		done := make(chan error, m)
		for c := 0; c < m; c++ {
			go func(c int) {
				s := w.Stream(c)
				lat := make([]int64, 0, opsPer)
				for i := 0; i < opsPer; i++ {
					var err error
					t0 := time.Now()
					switch op := s.Next(); op.Kind {
					case workload.KVPut:
						err = stores[c].Put(context.Background(), op.Key, op.Value)
					case workload.KVGet:
						if _, err = stores[c].Get(context.Background(), op.Key); errors.Is(err, kv.ErrNotFound) {
							err = nil
						}
					case workload.KVGetFrom:
						if _, err = stores[c].GetFrom(context.Background(), op.Owner, op.Key); errors.Is(err, kv.ErrNotFound) {
							err = nil
						}
					case workload.KVDelete:
						if err = stores[c].Delete(context.Background(), op.Key); errors.Is(err, kv.ErrNotFound) {
							err = nil
						}
					}
					lat = append(lat, time.Since(t0).Nanoseconds())
					if err != nil {
						done <- fmt.Errorf("%s: client %d op %d: %w", name, c, i, err)
						return
					}
				}
				samples[c] = lat
				done <- nil
			}(c)
		}
		for c := 0; c < m; c++ {
			if err := <-done; err != nil {
				fail(err)
			}
		}
		wall := time.Since(start)
		var all []int64
		for _, s := range samples {
			all = append(all, s...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		q := func(qq float64) int64 {
			rank := int(qq * float64(len(all)))
			if rank >= len(all) {
				rank = len(all) - 1
			}
			return all[rank]
		}
		total := m * opsPer
		p50, p99, p999 = q(0.50), q(0.99), q(0.999)
		results = append(results, benchResult{
			Experiment: "failover/" + name,
			N:          m,
			NsPerOp:    float64(wall.Nanoseconds()) / float64(total),
			P50Ns:      float64(p50),
			P99Ns:      float64(p99),
			P999Ns:     float64(p999),
		})
		return float64(total) / wall.Seconds(), p50, p99, p999
	}

	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	report := func(name string, ops float64, p50, p99, p999 int64) {
		fmt.Printf("%-22s %12.0f %10.1f %10.1f %10.1f\n", name, ops, us(p50), us(p99), us(p999))
	}
	fmt.Printf("(%d clients, %d mixed KV ops each per phase; fleet: faulty primary + honest secondary, w=2)\n", m, opsPer)
	fmt.Printf("%-22s %12s %10s %10s %10s\n", "phase", "ops/sec", "p50 us", "p99 us", "p999 us")

	ops, p50, p99, p999 := phase("healthy")
	report("healthy", ops, p50, p99, p999)

	primary.Kill()
	ops, p50, p99, p999 = phase("degraded")
	report("degraded (primary dead)", ops, p50, p99, p999)
	st := fleet.Stats()
	if st.FailoverPuts == 0 {
		fail(fmt.Errorf("degraded phase recorded no failover puts — the primary was never routed around"))
	}
	if st.BackendsDied == 0 {
		fail(fmt.Errorf("the dead primary never left the rotation"))
	}

	primary.Revive()
	fleet.ProbeNow()
	if !fleet.Status()[0].Alive {
		fail(fmt.Errorf("probe did not resurrect the revived primary"))
	}
	ops, p50, p99, p999 = phase("recovered")
	report("recovered", ops, p50, p99, p999)

	st = fleet.Stats()
	fmt.Printf("fleet: %d failover puts, %d failover gets, %d retries, %d read repairs, %d deaths, %d revivals — 0 client-visible errors\n",
		st.FailoverPuts, st.FailoverGets, st.Retries, st.ReadRepairs, st.BackendsDied, st.BackendsRevive)
	recordValue("failover/failover-puts", m, float64(st.FailoverPuts), "ops")
	recordValue("failover/failover-gets", m, float64(st.FailoverGets), "ops")
	recordValue("failover/read-repairs", m, float64(st.ReadRepairs), "ops")

	// Tampered-replica ablation: a byzantine primary whose every read is
	// bit-flipped. Writes land intact (faults corrupt the wire on reads
	// only), so every key is replicated; every read served by the primary
	// fails verification inside the fleet and must fall through to the
	// honest secondary without the KV layer ever seeing a bad chunk.
	byz := blobfleet.NewFaultyBlobs("byzantine", transport.NewMemBlobs(), blobfleet.FaultConfig{Seed: 2, FlipRate: 1})
	bfleet, err := blobfleet.New([]blobfleet.Backend{
		{Name: "byzantine", Store: byz},
		{Name: "honest", Store: transport.NewMemBlobs()},
	}, blobfleet.Options{WriteReplicas: 2, ProbeInterval: -1, RetryAttempts: 1, Seed: 9})
	if err != nil {
		fail(err)
	}
	defer bfleet.Close()
	bring, bsigners := crypto.NewTestKeyring(1, 29)
	bnw := transport.NewNetwork(1, ustor.NewServer(1), transport.WithBlobStore(bfleet))
	defer bnw.Stop()
	bch, err := bnw.BlobChannel()
	if err != nil {
		fail(err)
	}
	// Caches off: every read must actually fetch from the fleet, or the
	// byzantine replica would never be exercised.
	bst, err := kv.Open(ustor.NewClient(0, bring, bsigners[0], bnw.ClientLink(0)), bch,
		kv.WithChunkCacheBudget(0), kv.WithNodeCacheBudget(0), kv.WithValueCacheBudget(0))
	if err != nil {
		fail(err)
	}
	tamperOps := opsPer / 2
	for i := 0; i < tamperOps; i++ {
		key := fmt.Sprintf("key-%d", i)
		val := []byte(fmt.Sprintf("tamper-ablation value %d", i))
		if err := bst.Put(context.Background(), key, val); err != nil {
			fail(fmt.Errorf("tamper ablation put %d: %v", i, err))
		}
		got, err := bst.Get(context.Background(), key)
		if err != nil {
			fail(fmt.Errorf("tamper ablation get %d: %v", i, err))
		}
		if string(got) != string(val) {
			fail(fmt.Errorf("tamper ablation get %d returned corrupt data", i))
		}
	}
	bstats := bfleet.Stats()
	if bstats.TamperSkips == 0 {
		fail(fmt.Errorf("byzantine primary was never caught by content-hash verification"))
	}
	fmt.Printf("tamper ablation: %d reads, %d corrupt payloads skipped by verification, all served intact by the honest replica\n",
		tamperOps, bstats.TamperSkips)
	recordValue("failover/tamper-skips", 1, float64(bstats.TamperSkips), "skips")
}

// expBatch is E22: the staged batch pipeline of the dispatcher. Signed
// wire-level clients (one SUBMIT-signature per op, replies awaited but
// not re-verified) run over the in-memory transport against a
// WAL-logged server (fsync on — the deployment the pipeline exists
// for), sweeping the drain cap against the client count. Wire-level
// rather than full-protocol clients on purpose: a full USTOR client checks
// O(n) signatures per REPLY (a SUBMIT-signature and a line-41 proof per
// concurrent operation), and at 128 clients that
// client-side crypto saturates a small runner's CPU and masks the
// server-side pipeline this experiment measures (the full client's
// latency profile is E20's subject). cap=1 is the ablation: every op is
// its own batch and pays its own fsync. The headline claim is the cap-64 vs
// cap-1 ops/sec ratio at the highest client count (>= 2x): with many
// submitters queued, one drain covers the whole inbox and the batch
// shares a single fdatasync and one delivery per connection. The final
// cap1-wal row re-runs the E20 lattail/wal-gc shape with REAL
// full-protocol clients (4 clients, cap 1), so the trajectory file shows
// what one-op batches cost full clients; cf. lattail/wal-gc at the
// default cap.
func expBatch() {
	caps := []int{1, 8, 64, 256}
	clientCounts := []int{1, 16, 128}
	opsFor := func(m int) int {
		switch {
		case m >= 128:
			return 25
		case m >= 16:
			return 100
		default:
			return 400
		}
	}
	if quick {
		caps = []int{1, 64}
		clientCounts = []int{16}
		opsFor = func(int) int { return 40 }
	}

	type tail struct {
		opsPerSec      float64
		p50, p99, p999 int64
	}
	// withServer builds the WAL-logged server and network, runs body
	// against it, and turns the sampled latencies into a recorded row.
	withServer := func(name string, m, cap, opsPer int, body func(nw *transport.Network, signers []*crypto.Signer, setLat func(c int, v []int64))) tail {
		dir, err := os.MkdirTemp("", "faust-bench-batch")
		if err != nil {
			fail(err)
		}
		defer os.RemoveAll(dir)
		backend, err := store.OpenFile(dir, true)
		if err != nil {
			fail(err)
		}
		ps, err := store.Open(ustor.NewServer(m), backend, store.Options{})
		if err != nil {
			fail(err)
		}
		defer ps.Close()
		_, signers := crypto.NewTestKeyring(m, 22)
		nw := transport.NewNetwork(m, ps, transport.WithMaxBatch(cap))
		defer nw.Stop()

		samples := make([][]int64, m)
		var smu sync.Mutex
		start := time.Now()
		body(nw, signers, func(c int, v []int64) {
			smu.Lock()
			samples[c] = v
			smu.Unlock()
		})
		wall := time.Since(start)

		var all []int64
		for _, s := range samples {
			all = append(all, s...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		quantile := func(q float64) int64 {
			rank := int(q * float64(len(all)))
			if rank >= len(all) {
				rank = len(all) - 1
			}
			return all[rank]
		}
		total := len(all)
		t := tail{
			opsPerSec: float64(total) / wall.Seconds(),
			p50:       quantile(0.50),
			p99:       quantile(0.99),
			p999:      quantile(0.999),
		}
		results = append(results, benchResult{
			Experiment: name,
			N:          m,
			NsPerOp:    float64(wall.Nanoseconds()) / float64(total),
			P50Ns:      float64(t.p50),
			P99Ns:      float64(t.p99),
			P999Ns:     float64(t.p999),
		})
		return t
	}

	// runRaw drives m wire-level clients: each signs and sends one
	// SUBMIT at a time and waits for its REPLY, so the measured path is
	// sign -> queue -> WAL append+apply -> flush -> reply.
	runRaw := func(name string, m, cap, opsPer int) tail {
		return withServer(name, m, cap, opsPer, func(nw *transport.Network, signers []*crypto.Signer, setLat func(int, []int64)) {
			done := make(chan error, m)
			value := make([]byte, 64)
			xhash := crypto.Hash(value)
			for c := 0; c < m; c++ {
				go func(c int) {
					link := nw.ClientLink(c)
					samples := make([]int64, 0, opsPer)
					payload := []byte(nil)
					for i := 0; i < opsPer; i++ {
						t0 := time.Now()
						sub := &wire.Submit{
							T:     int64(i + 1),
							Inv:   wire.Invocation{Client: c, Op: wire.OpWrite, Reg: c, XHash: xhash},
							Value: value,
						}
						payload = wire.AppendSubmitPayload(payload[:0], sub.Inv.Op, sub.Inv.Reg, sub.T, xhash)
						sub.Inv.SubmitSig = signers[c].Sign(crypto.DomainSubmit, payload)
						if err := link.Send(sub); err != nil {
							done <- err
							return
						}
						if _, err := link.Recv(); err != nil {
							done <- err
							return
						}
						samples = append(samples, time.Since(t0).Nanoseconds())
					}
					setLat(c, samples)
					done <- nil
				}(c)
			}
			for c := 0; c < m; c++ {
				if err := <-done; err != nil {
					fail(err)
				}
			}
		})
	}

	// runFull drives real full-protocol USTOR clients (the E20 shape).
	runFull := func(name string, m, cap, opsPer int) tail {
		return withServer(name, m, cap, opsPer, func(nw *transport.Network, signers []*crypto.Signer, setLat func(int, []int64)) {
			ring, _ := crypto.NewTestKeyring(m, 22)
			clients := make([]*ustor.Client, m)
			for i := range clients {
				clients[i] = ustor.NewClient(i, ring, signers[i], nw.ClientLink(i))
			}
			w := workload.New(m, workload.Config{ReadFraction: 0.5, ValueSize: 64, Seed: 22})
			for i, c := range clients { // seed registers so reads return values
				if err := c.Write(w.Stream(i).NextWrite().Value); err != nil {
					fail(err)
				}
			}
			done := make(chan error, m)
			for c := 0; c < m; c++ {
				go func(c int) {
					s := w.Stream(c)
					samples := make([]int64, 0, opsPer)
					for i := 0; i < opsPer; i++ {
						op := s.Next()
						t0 := time.Now()
						var err error
						if op.IsWrite {
							err = clients[c].Write(op.Value)
						} else {
							_, err = clients[c].Read(op.Reg)
						}
						if err != nil {
							done <- err
							return
						}
						samples = append(samples, time.Since(t0).Nanoseconds())
					}
					setLat(c, samples)
					done <- nil
				}(c)
			}
			for c := 0; c < m; c++ {
				if err := <-done; err != nil {
					fail(err)
				}
			}
		})
	}

	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	fmt.Printf("(WAL fsync server, signed wire-level writes;\n" +
		" cap=1 is the one-op-batch ablation)\n")
	fmt.Printf("%-10s %6s %8s %12s %10s %10s %10s\n",
		"clients", "cap", "ops", "ops/sec", "p50 us", "p99 us", "p999 us")
	byCap := make(map[[2]int]tail)
	for _, m := range clientCounts {
		for _, cap := range caps {
			opsPer := opsFor(m)
			t := runRaw(fmt.Sprintf("batch/cap%d-c%d", cap, m), m, cap, opsPer)
			byCap[[2]int{m, cap}] = t
			fmt.Printf("%-10d %6d %8d %12.0f %10.1f %10.1f %10.1f\n",
				m, cap, m*opsPer, t.opsPerSec, us(t.p50), us(t.p99), us(t.p999))
		}
	}
	topM := clientCounts[len(clientCounts)-1]
	base := byCap[[2]int{topM, 1}]
	var bestCap int
	var best tail
	for _, cap := range caps[1:] {
		if t := byCap[[2]int{topM, cap}]; t.opsPerSec > best.opsPerSec {
			best, bestCap = t, cap
		}
	}
	if base.opsPerSec > 0 && bestCap != 0 {
		speedup := best.opsPerSec / base.opsPerSec
		fmt.Printf("batching speedup at %d clients: %.2fx (cap %d vs cap 1; target >= 2x)\n",
			topM, speedup, bestCap)
		recordValue(fmt.Sprintf("batch/speedup-c%d", topM), topM, speedup, "x")
	}

	// Full clients at cap 1: same shape as E20's lattail/wal-gc.
	c1Ops := 400
	if quick {
		c1Ops = 120
	}
	c1 := runFull("batch/cap1-wal", 4, 1, c1Ops)
	fmt.Printf("%-10s %6d %8d %12.0f %10.1f %10.1f %10.1f  (full clients, cf. lattail/wal-gc)\n",
		"4", 1, 4*c1Ops, c1.opsPerSec, us(c1.p50), us(c1.p99), us(c1.p999))
}
