package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// layerMetrics are the per-layer metrics of the traced run, in report
// order. Every workload reports all of them; a layer a workload bypasses
// reads 0. README.md maps each to the end-to-end metric it should move.
var layerMetrics = []struct{ name, unit string }{
	{"ustor.client_self_us", "us"},
	{"crypto.signs_per_op", "count"},
	{"crypto.verifies_per_op", "count"},
	{"crypto.sign_us_per_op", "us"},
	{"crypto.verify_us_per_op", "us"},
	{"transport.msgs_per_op", "count"},
	{"transport.rounds_per_op", "count"},
	{"wire.bytes_per_op", "B"},
	{"transport.rtt_us", "us"},
	{"transport.queue_wait_us", "us"},
	{"transport.reply_us", "us"},
	{"transport.batch_ops", "count"},
	{"transport.dispatcher_busy_frac", "frac"},
	{"ustor.apply_us", "us"},
	{"ustor.commit_us", "us"},
	{"faustproto.dummy_reads_per_s", "1/s"},
	{"faustproto.user_submit_share", "frac"},
	{"faustproto.stable_lag_p50_ms", "ms"},
	{"offline.msgs_per_s", "1/s"},
	{"store.wal_appends_per_op", "count"},
	{"store.wal_bytes_per_op", "B"},
	{"store.wal_append_us", "us"},
	{"store.wal_flushes_per_op", "count"},
	{"store.wal_flush_us", "us"},
	{"store.snapshots", "count"},
	{"store.snapshot_ms", "ms"},
	{"store.log_self_us", "us"},
	{"store.blob_put_us", "us"},
	{"store.blob_get_us", "us"},
	{"store.blob_bytes_per_user_byte", "x"},
	{"kv.register_ops_per_op", "count"},
	{"kv.register_us", "us"},
	{"kv.blob_gets_per_op", "count"},
	{"kv.blob_puts_per_op", "count"},
	{"kv.blob_bytes_per_op", "B"},
	{"kv.blob_us", "us"},
	{"kv.cache_hit_ratio", "frac"},
	{"kv.self_us", "us"},
	{"kv.put_p50_us", "us"},
	{"kv.put_p99_us", "us"},
	{"kv.get_p50_us", "us"},
	{"kv.getfrom_p50_us", "us"},
	{"kv.getfrom_p99_us", "us"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_frac", "frac"},
	{"trace.overhead_frac", "frac"},
	{"trace.unattributed_frac", "frac"},
}

// exportedOps bounds the Chrome trace file.
const exportedOps = 2000

// tracedRun measures the workload twice, each for half the seconds: an
// untraced phase (the baseline for the tracing overhead, and the source
// of the runtime and service-level values, which tracing would distort)
// and a traced phase whose spans and counters give the layer metrics
// and the per-op budget.
func tracedRun(o options) (output, error) {
	half := o.seconds / 2
	plain, err := runPhase(o, half, 1, nil)
	if err != nil {
		return output{}, err
	}
	tr := newTracer()
	traced, err := runPhase(o, half, 1, tr)
	if err != nil {
		return output{}, err
	}
	out := output{Metrics: map[string]metric{}}
	verdict(&result{attempted: plain.attempted + traced.attempted, failed: plain.failed + traced.failed,
		violations: append(plain.violations, traced.violations...)}, &out)

	a := tr.analyze(traced.spec.frame)
	vals := layerValues(plain, traced, tr, a)
	fmt.Println("per-layer metrics (traced phase unless noted):")
	for _, lm := range layerMetrics {
		v := vals[lm.name]
		out.Metrics[lm.name] = metric{v, lm.unit}
		fmt.Printf("  %-34s %14.4f %s\n", lm.name, v, lm.unit)
	}
	printBudget(a)
	dir := filepath.Join(o.workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return output{}, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := a.exportChrome(path, exportedOps); err != nil {
		return output{}, err
	}
	fmt.Printf("trace: first %d ops with their spans written to %s (Chrome trace_event JSON; open in Perfetto)\n", exportedOps, path)
	return out, nil
}

func meanNs(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s int64
	for _, x := range v {
		s += x
	}
	return float64(s) / float64(len(v))
}

// layerValues computes every per-layer metric. Per-op values divide by
// the traced phase's user operations; *_us values of a boundary are the
// mean duration of one call across it.
func layerValues(plain, traced *result, tr *tracer, a *analysis) map[string]float64 {
	v := map[string]float64{}
	u := float64(traced.ops())
	win := traced.elapsedS
	if u == 0 || win == 0 {
		return v
	}
	per := func(x float64) float64 { return x / u }
	c := tr.c

	var total int64
	for _, b := range a.budget {
		for _, ns := range b {
			total += ns
		}
	}
	self := func(label string) float64 {
		var ns int64
		for _, b := range a.budget {
			ns += b[label]
		}
		return per(float64(ns)) / 1e3
	}
	v["ustor.client_self_us"] = self("ustor.client_self")
	v["kv.self_us"] = self("kv.self")
	v["store.log_self_us"] = self("store.log_self")
	if total > 0 {
		var un int64
		for _, b := range a.budget {
			un += b[labelUnattributed]
		}
		v["trace.unattributed_frac"] = float64(un) / float64(total)
	}

	v["crypto.signs_per_op"] = per(float64(traced.sign.count))
	v["crypto.verifies_per_op"] = per(float64(traced.verify.count))
	v["crypto.sign_us_per_op"] = per(float64(traced.sign.sumNs)) / 1e3
	v["crypto.verify_us_per_op"] = per(float64(traced.verify.sumNs)) / 1e3

	v["transport.msgs_per_op"] = per(float64(a.linkMsgs))
	v["transport.rounds_per_op"] = per(float64(a.replies))
	v["wire.bytes_per_op"] = per(float64(a.linkBytes))
	v["transport.rtt_us"] = meanNs(a.rttNs) / 1e3
	v["transport.queue_wait_us"] = meanNs(a.queueNs) / 1e3
	v["transport.reply_us"] = meanNs(a.replyNs) / 1e3
	if flushes, buffered := c(cSrvFlush).n.Load(), c(cSrvBuffered).n.Load(); flushes+buffered > 0 {
		// A durable core: every unbatched SUBMIT is its own flush.
		single := c(cSrvSubmit).n.Load()
		v["transport.batch_ops"] = float64(single+buffered) / float64(single+flushes)
	}
	busy := c(cSrvSubmit).ns.Load() + c(cSrvBuffered).ns.Load() + c(cSrvFlush).ns.Load() + c(cSrvCommit).ns.Load()
	v["transport.dispatcher_busy_frac"] = float64(busy) / 1e9 / win

	v["ustor.apply_us"] = c(cApply).meanUs()
	v["ustor.commit_us"] = c(cCommit).meanUs()
	if n := a.userSubmits + a.dummySubmits; n > 0 {
		v["faustproto.user_submit_share"] = float64(a.userSubmits) / float64(n)
	}
	v["faustproto.dummy_reads_per_s"] = float64(a.dummySubmits) / win
	v["offline.msgs_per_s"] = float64(c(cOffline).n.Load()) / win
	if l := plain.stableLagNs; len(l) > 0 {
		v["faustproto.stable_lag_p50_ms"] = float64(l.quantile(0.5)) / 1e6
	}

	v["store.wal_appends_per_op"] = per(float64(c(cWALAppend).n.Load()))
	v["store.wal_bytes_per_op"] = per(float64(c(cWALAppend).bytes.Load()))
	v["store.wal_append_us"] = c(cWALAppend).meanUs()
	v["store.wal_flushes_per_op"] = per(float64(c(cWALFlush).n.Load()))
	v["store.wal_flush_us"] = c(cWALFlush).meanUs()
	v["store.snapshots"] = float64(c(cSnapshot).n.Load())
	v["store.snapshot_ms"] = c(cSnapshot).meanUs() / 1e3
	v["store.blob_put_us"] = c(cBlobPut).meanUs()
	v["store.blob_get_us"] = c(cBlobGet).meanUs()
	if traced.userBytes > 0 {
		v["store.blob_bytes_per_user_byte"] = float64(c(cBlobPut).bytes.Load()) / float64(traced.userBytes)
	}

	gets, puts := c(cKVBlobGet), c(cKVBlobPut)
	v["kv.register_ops_per_op"] = per(float64(c(cKVRegister).n.Load()))
	v["kv.register_us"] = c(cKVRegister).meanUs()
	v["kv.blob_gets_per_op"] = per(float64(gets.n.Load()))
	v["kv.blob_puts_per_op"] = per(float64(puts.n.Load()))
	v["kv.blob_bytes_per_op"] = per(float64(gets.bytes.Load() + puts.bytes.Load()))
	if n := gets.n.Load() + puts.n.Load(); n > 0 {
		v["kv.blob_us"] = float64(gets.ns.Load()+puts.ns.Load()) / float64(n) / 1e3
	}
	v["kv.cache_hit_ratio"] = traced.cacheHitRatio
	v["kv.put_p50_us"] = usToF(plain.lat[kPut].quantile(0.5))
	v["kv.put_p99_us"] = usToF(plain.lat[kPut].quantile(0.99))
	v["kv.get_p50_us"] = usToF(plain.lat[kGet].quantile(0.5))
	v["kv.getfrom_p50_us"] = usToF(plain.lat[kGetFrom].quantile(0.5))
	v["kv.getfrom_p99_us"] = usToF(plain.lat[kGetFrom].quantile(0.99))

	v["runtime.allocs_per_op"], v["runtime.alloc_bytes_per_op"], v["runtime.gc_cpu_frac"] =
		runtimeDelta(plain.rt0, plain.rt1, plain.ops())
	if base := float64(plain.ops()) / plain.elapsedS; base > 0 {
		v["trace.overhead_frac"] = 1 - (u/win)/base
	}
	return v
}

// printBudget prints, per op type, where an operation's time went: the
// mean self time of every stage, which together with the unattributed
// residual sum to the mean operation time.
func printBudget(a *analysis) {
	fmt.Println("per-op budget (traced phase; mean self time per op; stages + unattributed = op time):")
	for k := opKind(0); k < numKinds; k++ {
		b, n := a.budget[k], a.count[k]
		if n == 0 {
			continue
		}
		var total int64
		labels := make([]string, 0, len(b))
		for l, ns := range b {
			total += ns
			if l != labelUnattributed {
				labels = append(labels, l)
			}
		}
		sort.Slice(labels, func(i, j int) bool { return b[labels[i]] > b[labels[j]] })
		fmt.Printf("  %s: n=%d, op time %.1f us\n", k, n, float64(total)/float64(n)/1e3)
		for _, l := range append(labels, labelUnattributed) {
			fmt.Printf("    %-26s %10.1f us %6.1f%%\n", l, float64(b[l])/float64(n)/1e3, 100*float64(b[l])/float64(total))
		}
	}
}
