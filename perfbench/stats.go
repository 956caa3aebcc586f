package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"faust/internal/obs"
)

// latencies is one op class's sample set, in nanoseconds.
type latencies []int64

// sorted returns a sorted copy.
func (l latencies) sorted() latencies {
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile returns the nearest-rank q-quantile of sorted samples (0 when
// there are none).
func (l latencies) quantile(q float64) int64 {
	if len(l) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(l)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(l) {
		rank = len(l) - 1
	}
	return l[rank]
}

// beyond counts the samples strictly above the nearest-rank q-quantile
// position: the ones a reader is trusting when a percentile is quoted.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	return n - rank
}

// tailLadder is the percentile ladder the tail rule climbs.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// tailPercentile returns the highest percentile on the ladder that has at
// least ten samples beyond it, or 0 when even the median does not. A tail
// quoted from fewer samples is one or two lucky or unlucky ops.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if beyond(n, q) >= 10 {
			best = q
		}
	}
	return best
}

// pctName renders a ladder quantile as p50, p99, p99.9 ...
func pctName(q float64) string {
	s := fmt.Sprintf("%.4f", q*100)
	for s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return "p" + s
}

// usToF converts nanoseconds to microseconds.
func usToF(ns int64) float64 { return float64(ns) / 1e3 }

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB returns the process's peak resident set size in MiB.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample is a point-in-time reading of the Go runtime's
// allocation and GC CPU counters.
type runtimeSample struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	out := runtimeSample{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[1].Value.Float64()
	}
	return out
}

// runtimeDelta turns two samples around a window of ops into per-op
// allocation counts and the GC share of the runtime's CPU time.
func runtimeDelta(a, b runtimeSample, ops int) (allocsPerOp, bytesPerOp, gcFrac float64) {
	if ops > 0 {
		allocsPerOp = float64(b.mallocs-a.mallocs) / float64(ops)
		bytesPerOp = float64(b.allocBytes-a.allocBytes) / float64(ops)
	}
	if tot := b.totalCPU - a.totalCPU; tot > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / tot
	}
	return
}

// The crypto layer's own Ed25519 timing histograms (package crypto
// registers them on the default registry; looking a family up again
// returns the same histogram).
var (
	signNs   = obs.Default().Histogram("faust_ed25519_sign_ns")
	verifyNs = obs.Default().Histogram("faust_ed25519_verify_ns")
)

// histDelta is a histogram's count and sum growth over a window.
type histDelta struct{ count, sumNs int64 }

func deltaOf(a, b obs.HistSnapshot) histDelta {
	return histDelta{b.Count - a.Count, b.Sum - a.Sum}
}
