// Command perfbench is the repository's benchmark: it drives the FAUST /
// USTOR system from outside through its public Go APIs with closed-loop
// clients, checks every read against what was written, and prints the
// end-to-end metrics of one workload (or, with -trace 1, the per-layer
// metrics and per-operation time budget of a traced run).
//
//	perfbench -workload faust-mem|reg-tcp-wal|kv-wal -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero
// when a correctness check fails. README.md describes the workloads and
// every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// opKind classifies user operations.
type opKind int

const (
	kWrite opKind = iota
	kRead
	kPut
	kGet
	kGetFrom
	numKinds
)

func (k opKind) String() string {
	return [...]string{"write", "read", "put", "get", "getfrom"}[k]
}

// env is what a workload's setup gets.
type env struct {
	seed int64
	tr   *tracer // nil: untraced
	hist *history
}

// instance is a set-up workload.
type instance interface {
	// step runs goroutine g's next operation, timing the public call and
	// reporting it through l. It returns false when g must stop (after a
	// failed operation: the client may be halted).
	step(g int, l *lane) bool
	// finish runs once load has stopped: it drains, checks what only the
	// end state can show, adds workload-specific results to r and
	// releases everything.
	finish(r *result) error
	// close releases everything without checks (discarded setups).
	close()
}

// windowed is implemented by instances that sample their own counters at
// the measured window's edges.
type windowed interface {
	windowStart()
	windowEnd()
}

// workloadSpec describes one workload.
type workloadSpec struct {
	name       string
	goroutines int
	frame      string // budget label of the top layer's own time
	setups     int    // setups per untraced run; setup_s is their median
	setup      func(e *env) (instance, error)
}

// Setups take about a millisecond on faust-mem and reg-tcp-wal, so they
// repeat often enough for a steady median; kv-wal's prefill takes
// seconds.
var workloads = map[string]workloadSpec{
	"faust-mem":   {"faust-mem", 2, "ustor.client_self", 51, setupFaustMem},
	"reg-tcp-wal": {"reg-tcp-wal", 2, "ustor.client_self", 51, setupRegTCP},
	"kv-wal":      {"kv-wal", 2, "kv.self", 3, setupKVWAL},
}

// lane is one load goroutine's private record.
type lane struct {
	r          *runner
	lat        [numKinds]latencies
	attempted  int
	failed     int
	userBytes  int64
	violations []string
}

// opToken carries an operation from begin to end.
type opToken struct {
	seq      uint64
	client   int
	start    int64
	measured bool
}

func (l *lane) begin(client int) opToken {
	tok := opToken{seq: l.r.seq.Add(1), client: client, measured: l.r.phase.Load() == phaseMeasure}
	if tr := l.r.tr; tr != nil {
		tr.cur[client].Store(tok.seq)
	}
	tok.start = now()
	return tok
}

// end closes an operation started by begin; t is the protocol timestamp
// the operation returned (0 if none). A failed operation is a correctness
// violation: the server is honest, so nothing should fail.
func (l *lane) end(tok opToken, kind opKind, t int64, err error) {
	end := now()
	if tok.measured {
		l.attempted++
		if err != nil {
			l.failed++
		} else {
			l.lat[kind] = append(l.lat[kind], end-tok.start)
		}
		if tr := l.r.tr; tr != nil && err == nil {
			tr.op(opRecord{seq: tok.seq, kind: kind, client: int32(tok.client), t: t, start: tok.start, end: end})
		}
	}
	if err != nil {
		l.violate(fmt.Errorf("%s by client %d failed: %w", kind, tok.client, err))
	}
}

// wroteBytes counts value bytes a measured write acknowledged.
func (l *lane) wroteBytes(tok opToken, n int) {
	if tok.measured {
		l.userBytes += int64(n)
	}
}

func (l *lane) violate(err error) {
	if len(l.violations) < 20 {
		l.violations = append(l.violations, err.Error())
	}
}

const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

type runner struct {
	phase atomic.Int32
	seq   atomic.Uint64
	tr    *tracer
}

// result is one phase's outcome.
type result struct {
	spec       workloadSpec
	setupS     []float64
	elapsedS   float64
	cpuS       float64
	lat        [numKinds]latencies
	attempted  int
	failed     int
	userBytes  int64 // acknowledged value bytes of measured writes
	violations []string
	rt0, rt1   runtimeSample
	sign       histDelta // Ed25519 signs over the window
	verify     histDelta
	// Workload-specific service-level results (finish fills them).
	stableLagNs          latencies
	storedBytes, usrByte int64
	cacheHitRatio        float64 // kv-wal's chunk and node caches over the window
	notes                []string
}

func (r *result) ops() int {
	n := 0
	for _, l := range r.lat {
		n += len(l)
	}
	return n
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	workDir  string
}

// warmup is the unmeasured load before every measured window: the first
// seconds after setup run slower (lazy allocation, caches filling, the
// runtime growing its heap).
const warmup = 2 * time.Second

// runPhase sets the workload up setups times (timing each), keeps the
// last, warms it up, measures for seconds and finishes it.
func runPhase(o options, seconds float64, setups int, tr *tracer) (*result, error) {
	spec := workloads[o.workload]
	res := &result{spec: spec}
	var inst instance
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var err error
		inst, err = spec.setup(&env{seed: o.seed, tr: tr, hist: newHistory()})
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			inst.close()
			runtime.GC() // the next setup must not find this one's garbage in the heap
		}
	}
	runtime.GC()

	r := &runner{tr: tr}
	lanes := make([]*lane, spec.goroutines)
	var wg sync.WaitGroup
	for g := range lanes {
		lanes[g] = &lane{r: r}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r.phase.Load() != phaseStop && inst.step(g, lanes[g]) {
			}
		}(g)
	}
	time.Sleep(warmup)
	win, _ := inst.(windowed)
	if win != nil {
		win.windowStart()
	}
	res.rt0 = readRuntime()
	sign0, verify0 := signNs.Snapshot(), verifyNs.Snapshot()
	cpu0 := cpuTime()
	if tr != nil {
		tr.on.Store(true)
	}
	t0 := time.Now()
	r.phase.Store(phaseMeasure)
	time.Sleep(time.Duration(seconds * float64(time.Second)))
	r.phase.Store(phaseStop)
	wg.Wait()
	res.elapsedS = time.Since(t0).Seconds()
	if tr != nil {
		tr.on.Store(false)
	}
	res.cpuS = (cpuTime() - cpu0).Seconds()
	res.sign = deltaOf(sign0, signNs.Snapshot())
	res.verify = deltaOf(verify0, verifyNs.Snapshot())
	res.rt1 = readRuntime()
	if win != nil {
		win.windowEnd()
	}
	for _, l := range lanes {
		for k := range l.lat {
			res.lat[k] = append(res.lat[k], l.lat[k]...)
		}
		res.attempted += l.attempted
		res.failed += l.failed
		res.userBytes += l.userBytes
		res.violations = append(res.violations, l.violations...)
	}
	for k := range res.lat {
		res.lat[k] = res.lat[k].sorted()
	}
	if err := inst.finish(res); err != nil {
		res.violations = append(res.violations, err.Error())
	}
	return res, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func main() {
	var o options
	var traced int
	flag.StringVar(&o.workload, "workload", "", "faust-mem | reg-tcp-wal | kv-wal")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: keys, values and op streams derive from it")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds (the traced run splits them between an untraced and a traced phase)")
	flag.IntVar(&traced, "trace", 0, "1: traced run printing per-layer metrics and the per-op budget")
	flag.StringVar(&o.workDir, "work-dir", ".bench_build", "directory for trace files")
	flag.Parse()
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d\n",
		o.workload, o.seed, o.seconds, traced, runtime.GOMAXPROCS(0))

	var out output
	var err error
	if traced == 1 {
		out, err = tracedRun(o)
	} else {
		out, err = untracedRun(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// verdict prints violations and fills the correctness fields.
func verdict(res *result, out *output) {
	out.Attempted = res.attempted
	out.Failed = res.failed
	out.Correct = len(res.violations) == 0 && res.failed == 0 && res.attempted > 0
	for _, v := range res.violations {
		fmt.Println("VIOLATION:", v)
	}
	if res.attempted == 0 {
		fmt.Println("VIOLATION: no operation was measured")
	}
	if out.Correct {
		fmt.Printf("correctness: ok (%d ops checked)\n", res.attempted)
	}
}

// classOf names the end-to-end class an op kind counts in: "write" is
// the workload's update (register write, KV put), "read" its
// authenticated read through the server (register read, KV GetFrom). A
// KV Get of the own namespace is served from the client's own tree and
// cache and is reported on its own: mixing it into "read" would put the
// median between two modes an order of magnitude apart.
func classOf(k opKind) string {
	switch k {
	case kWrite, kPut:
		return "write"
	case kRead, kGetFrom:
		return "read"
	}
	return ""
}

func untracedRun(o options) (output, error) {
	res, err := runPhase(o, o.seconds, workloads[o.workload].setups, nil)
	if err != nil {
		return output{}, err
	}
	out := output{Metrics: map[string]metric{}}
	verdict(res, &out)
	for name, m := range e2eMetrics(res) {
		out.Metrics[name] = m
	}
	printE2E(res, out.Metrics)
	return out, nil
}

// classLatencies merges the sorted samples of an end-to-end class.
func classLatencies(res *result, class string) latencies {
	var all latencies
	for k := opKind(0); k < numKinds; k++ {
		if classOf(k) == class {
			all = append(all, res.lat[k]...)
		}
	}
	return all.sorted()
}

// e2eMetrics computes the end-to-end metrics every workload reports: the
// ones BENCHMARK.json bounds. Tail latencies are printed by printE2E but
// not bounded — see README.md.
func e2eMetrics(res *result) map[string]metric {
	ops := res.ops()
	m := map[string]metric{
		"setup_s":    {median(res.setupS), "s"},
		"ops_per_s":  {float64(ops) / res.elapsedS, "1/s"},
		"max_rss_mb": {maxRSSMiB(), "MiB"},
	}
	if ops > 0 {
		m["cpu_us_per_op"] = metric{res.cpuS * 1e6 / float64(ops), "us"}
	}
	for _, class := range []string{"write", "read"} {
		m[class+"_p50_us"] = metric{usToF(classLatencies(res, class).quantile(0.5)), "us"}
	}
	return m
}

// printE2E prints every end-to-end metric with its unit and sample
// count, the tails with the tail rule's percentile, and the
// workload-specific results.
func printE2E(res *result, m map[string]metric) {
	ops := res.ops()
	fmt.Printf("%-26s %12.4f %-5s median of %d setups %v\n", "setup_s", m["setup_s"].Value, "s", len(res.setupS), fmtFloats(res.setupS))
	fmt.Printf("%-26s %12.1f %-5s n=%d ops in %.2f s (attempted %d, failed %d)\n", "ops_per_s", m["ops_per_s"].Value, "1/s", ops, res.elapsedS, res.attempted, res.failed)
	for _, class := range []string{"write", "read"} {
		l := classLatencies(res, class)
		fmt.Printf("%-26s %12.1f %-5s n=%d\n", class+"_p50_us", m[class+"_p50_us"].Value, "us", len(l))
	}
	fmt.Printf("%-26s %12.1f %-5s process user+sys CPU over the window / ops\n", "cpu_us_per_op", m["cpu_us_per_op"].Value, "us")
	fmt.Printf("%-26s %12.1f %-5s peak resident set of the process\n", "max_rss_mb", m["max_rss_mb"].Value, "MiB")
	fmt.Println("per op type (all samples of the window; tails are reported, not bounded):")
	for _, class := range []string{"write", "read"} {
		if l := classLatencies(res, class); len(l) > 0 {
			fmt.Printf("  %-8s n=%-7d p99=%.1fus\n", class+"_p99", len(l), usToF(l.quantile(0.99)))
		}
	}
	for k := opKind(0); k < numKinds; k++ {
		l := res.lat[k]
		if len(l) == 0 {
			continue
		}
		line := fmt.Sprintf("  %-8s n=%-7d p50=%.1fus p90=%.1fus p99=%.1fus", k, len(l), usToF(l.quantile(0.5)), usToF(l.quantile(0.9)), usToF(l.quantile(0.99)))
		if q := tailPercentile(len(l)); q > 0 {
			line += fmt.Sprintf(" tail %s=%.1fus (%d samples beyond)", pctName(q), usToF(l.quantile(q)), beyond(len(l), q))
		}
		fmt.Println(line)
	}
	for _, s := range workloadSLIs(res) {
		fmt.Println(s)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
}

// workloadSLIs renders the service-level results only some workloads
// have, with units and sample counts.
func workloadSLIs(res *result) []string {
	var out []string
	if l := res.stableLagNs; len(l) > 0 {
		out = append(out, fmt.Sprintf("%-26s %12.2f %-5s n=%d writes (p99=%.2fms)", "stable_lag_p50_ms",
			float64(l.quantile(0.5))/1e6, "ms", len(l), float64(l.quantile(0.99))/1e6))
	}
	for _, k := range []opKind{kPut, kGet, kGetFrom} {
		if l := res.lat[k]; len(l) > 0 {
			out = append(out, fmt.Sprintf("%-26s %12.1f %-5s n=%d", k.String()+"_p50_us", usToF(l.quantile(0.5)), "us", len(l)))
			if k != kGet {
				out = append(out, fmt.Sprintf("%-26s %12.1f %-5s n=%d", k.String()+"_p99_us", usToF(l.quantile(0.99)), "us", len(l)))
			}
		}
	}
	if res.usrByte > 0 {
		out = append(out, fmt.Sprintf("%-26s %12.3f %-5s %d bytes in the blob store / %d acknowledged value bytes",
			"stored_bytes_per_user_byte", float64(res.storedBytes)/float64(res.usrByte), "x", res.storedBytes, res.usrByte))
	}
	return out
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
