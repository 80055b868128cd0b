package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"syscall"
)

// labelled runs one call into core under a pprof "call" label, so a traced
// profile can be cut by the benchmark's own calls (go tool pprof -tagfocus).
// Goroutines the call starts inherit the label.
func labelled[T any](call string, f func() (T, error)) (T, error) {
	var v T
	var err error
	pprof.Do(context.Background(), pprof.Labels("call", call), func(context.Context) { v, err = f() })
	return v, err
}

func labelledDo(call string, f func()) {
	pprof.Do(context.Background(), pprof.Labels("call", call), func(context.Context) { f() })
}

// rusage returns user+system CPU seconds of this process and of its reaped
// children, and this process's peak RSS in MB.
func rusage() (self, children, peakMB float64) {
	var ru syscall.Rusage
	cpu := func(ru *syscall.Rusage) float64 {
		return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		self = cpu(&ru)
		peakMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru) == nil {
		children = cpu(&ru)
	}
	return self, children, peakMB
}

// strayNodes lists live processes started from this executable with the
// net backend's node marker: after Close there must be none, reparented
// orphans included.
func strayNodes() []int {
	exe, err := os.Executable()
	if err != nil {
		return nil
	}
	dirs, _ := filepath.Glob("/proc/[0-9]*")
	var out []int
	for _, d := range dirs {
		cmdline, err := os.ReadFile(d + "/cmdline")
		if err != nil {
			continue
		}
		argv := bytes.Split(cmdline, []byte{0})
		if len(argv) < 2 || string(argv[1]) != "-node" {
			continue
		}
		if target, err := os.Readlink(d + "/exe"); err == nil && target == exe {
			pid, _ := strconv.Atoi(filepath.Base(d))
			out = append(out, pid)
		}
	}
	return out
}

// runtimeMetrics reads the allocation, GC and scheduler counters of the
// whole process lifetime.
func runtimeMetrics() map[string]float64 {
	names := []string{
		"/gc/heap/allocs:bytes",
		"/gc/heap/allocs:objects",
		"/gc/cycles/total:gc-cycles",
		"/cpu/classes/gc/total:cpu-seconds",
		"/cpu/classes/total:cpu-seconds",
		"/sched/latencies:seconds",
	}
	ss := make([]metrics.Sample, len(names))
	for i, n := range names {
		ss[i].Name = n
	}
	metrics.Read(ss)
	val := func(i int) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		}
		return 0
	}
	out := map[string]float64{
		"alloc.bytes":   val(0),
		"alloc.objects": val(1),
		"gc.cycles":     val(2),
	}
	if total := val(4); total > 0 {
		out["gc.cpu_share"] = val(3) / total
	}
	if ss[5].Value.Kind() == metrics.KindFloat64Histogram {
		out["sched.latency_p99_us"] = histQuantile(ss[5].Value.Float64Histogram(), 0.99) * 1e6
	}
	return out
}

// histQuantile is the upper edge of the bucket holding quantile q.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= need {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// quantile is the nearest-rank quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailQuantile is the highest quantile, at most 0.99, that leaves at least
// ten samples beyond it.
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	return min(0.99, max(q, 0.5))
}
