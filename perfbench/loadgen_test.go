package main

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One worker; the first op stalls 50ms, so the ops due during the stall
	// wait, and their latency counts the wait.
	ops := schedule(200, 50*time.Millisecond, 0, func(int) (string, string) { return "recommend", "sql" })
	var calls atomic.Int64
	outs := runOpenLoop(ops, 1, func(w int, o op) error {
		if calls.Add(1) == 1 {
			time.Sleep(50 * time.Millisecond)
		}
		return nil
	})
	if len(outs) != 10 {
		t.Fatalf("%d outcomes, want 10", len(outs))
	}
	if outs[1].Latency < 40*time.Millisecond {
		t.Errorf("op due 5ms into a 50ms stall has latency %v, want >= 40ms", outs[1].Latency)
	}
	maxBacklog := 0
	for _, o := range outs {
		maxBacklog = max(maxBacklog, o.Backlog)
	}
	if maxBacklog < 5 {
		t.Errorf("peak backlog %d, want the ops queued behind the stall", maxBacklog)
	}
}

func TestScheduleIsSeededAndFixedRate(t *testing.T) {
	a := schedule(100, time.Second, 0, mixPicker(9, "recommend"))
	b := schedule(100, time.Second, 0, mixPicker(9, "recommend"))
	c := schedule(100, time.Second, 0, mixPicker(10, "recommend"))
	if len(a) != 100 || a[99].Due != 990*time.Millisecond {
		t.Fatalf("schedule: %d ops, last due %v", len(a), a[len(a)-1].Due)
	}
	same, differs := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differs = differs || a[i].Workload != c[i].Workload
	}
	if !same || !differs {
		t.Errorf("mix order must follow the seed: same seed equal %v, other seed differs %v", same, differs)
	}
}
