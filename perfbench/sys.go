package main

import (
	"fmt"
	"runtime"
	rtm "runtime/metrics"
	"syscall"
	"time"
)

// peakRSSMB is the process's peak resident set in MB (getrusage ru_maxrss,
// which Linux reports in KiB).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSnap is a Go runtime reading; deltas of two readings give the GC cost
// of a measured window.
type rtSnap struct {
	gcCycles   uint64
	allocBytes uint64
	pauseNs    uint64
}

func readRuntime() rtSnap {
	samples := []rtm.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	rtm.Read(samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSnap{
		gcCycles:   samples[0].Value.Uint64(),
		allocBytes: samples[1].Value.Uint64(),
		pauseNs:    ms.PauseTotalNs,
	}
}

// runtimeLayer turns two readings into the runtime per-layer metrics.
func runtimeLayer(a, b rtSnap, m metricSet) {
	m.set("runtime.gc_pause_ms", float64(b.pauseNs-a.pauseNs)/1e6)
	m.set("runtime.alloc_bytes", float64(b.allocBytes-a.allocBytes))
	m.set("runtime.gc_cycles", float64(b.gcCycles-a.gcCycles))
}
