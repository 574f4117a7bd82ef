package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// op is one scheduled request of an open loop: it is due at Due after the
// schedule starts, whether or not earlier requests have finished.
type op struct {
	ID       int64 // request id, carried as the rid query parameter
	Due      time.Duration
	Kind     string // "recommend", "submit" or "train"
	Workload string
}

// outcome is what the generator observed for one op. Latency is timed from
// the op's due time, so a stall also charges the requests queued behind it.
type outcome struct {
	Op      op
	Claimed time.Time // when a worker took it up, before waiting for its due time
	Start   time.Time // when the worker began sending it
	End     time.Time
	Latency time.Duration // End - due
	Late    time.Duration // Start - due for ops a worker waited for: timer overshoot
	Backlog int           // ops already due but not yet started, seen at Start
	Err     error
}

// schedule builds a fixed-rate open loop lasting d, its first op due at
// offset, with each op's kind and app chosen by pick.
func schedule(rate float64, d, offset time.Duration, pick func(i int) (kind, workload string)) []op {
	n := int(rate * d.Seconds())
	ops := make([]op, n)
	step := time.Duration(float64(time.Second) / rate)
	for i := range ops {
		kind, wl := pick(i)
		ops[i] = op{Due: offset + time.Duration(i)*step, Kind: kind, Workload: wl}
	}
	return ops
}

// runOpenLoop executes ops (sorted by Due) with a fixed set of workers: each
// worker claims the next op, sleeps until it is due and sends it. When every
// worker is busy, due ops wait — that wait is part of their latency and of
// the reported backlog. do performs one op on behalf of worker w.
func runOpenLoop(ops []op, workers int, do func(w int, o op) error) []outcome {
	out := make([]outcome, len(ops))
	dues := make([]time.Duration, len(ops))
	for i, o := range ops {
		dues[i] = o.Due
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := ops[i]
				claimed := time.Now()
				due := t0.Add(o.Due)
				waited := false
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					waited = true
				}
				start := time.Now()
				// Ops due by now and not yet claimed by any worker.
				dueNow := sort.Search(len(dues), func(k int) bool { return dues[k] > start.Sub(t0) })
				backlog := dueNow - int(next.Load())
				if backlog < 0 {
					backlog = 0
				}
				err := do(w, o)
				end := time.Now()
				res := outcome{Op: o, Claimed: claimed, Start: start, End: end, Latency: end.Sub(due), Backlog: backlog, Err: err}
				if waited {
					res.Late = start.Sub(due)
				}
				out[i] = res
			}
		}(w)
	}
	wg.Wait()
	return out
}

// latencies returns the latencies, in ms, of the successful outcomes of one
// kind; failures count separately and miss every latency limit.
func latencies(outs []outcome, kind string) (lat []float64, failed int) {
	for _, o := range outs {
		if o.Op.Kind != kind {
			continue
		}
		if o.Err != nil {
			failed++
			continue
		}
		lat = append(lat, ms(o.Latency))
	}
	return lat, failed
}

// appCentral is the central latency (ms) of the successful ops of one
// kind: the mean over the apps of each app's median. The ops are a balanced
// mixture of four apps whose latencies differ by up to 3x; the pooled median
// of such a mixture sits between two apps' modes and jumps from run to run,
// while the per-app medians do not.
func appCentral(outs []outcome, kind string) float64 {
	byApp := map[string][]float64{}
	for _, o := range outs {
		if o.Op.Kind == kind && o.Err == nil {
			byApp[o.Op.Workload] = append(byApp[o.Op.Workload], ms(o.Latency))
		}
	}
	var sum float64
	for _, app := range apps {
		sum += quantile(byApp[app], 0.5)
	}
	return sum / float64(len(apps))
}

// generatorHealth reports how far behind schedule the generator itself ran
// (p99 timer overshoot, ms) and the peak backlog it saw.
func generatorHealth(outs []outcome) (lateP99 float64, backlogMax int) {
	var late []float64
	for _, o := range outs {
		late = append(late, ms(o.Late))
		if o.Backlog > backlogMax {
			backlogMax = o.Backlog
		}
	}
	return quantile(late, 0.99), backlogMax
}
