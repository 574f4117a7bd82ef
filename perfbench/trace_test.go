package main

import (
	"testing"
	"time"
)

func TestSelfTimesPartitionTheWall(t *testing.T) {
	// Request 7: loadgen [0,100] ⊃ http [10,100] ⊃ fleet [20,90] ⊃ service [30,80].
	rec := newRecorder()
	at := func(ns int64) time.Time { return rec.epoch.Add(time.Duration(ns)) }
	rec.record("service", "GET", 7, at(30), at(80))
	rec.record("loadgen", "recommend", 7, at(0), at(100))
	rec.record("fleet", "GET", 7, at(20), at(90))
	rec.record("http", "recommend", 7, at(10), at(100))
	rows := selfTimes(rec.finish())
	want := map[string]int64{"loadgen": 10, "http": 20, "fleet": 20, "service": 50}
	var sum int64
	for _, r := range rows {
		if r.Self != want[r.Layer] {
			t.Errorf("%s self = %d, want %d", r.Layer, r.Self, want[r.Layer])
		}
		sum += r.Self
	}
	if sum != 100 {
		t.Errorf("self sum %d, want the root's 100", sum)
	}
}

// servedWindow records the spans of a traced mixed window of two generator
// workers over [0, 1000) ns, leaving out the spans of one layer, and returns
// them with the window's worker time. Worker 1 sends a recommend, worker 2 a
// submit; each waits for its due time first.
func servedWindow(drop string) ([]span, int64) {
	rec := newRecorder()
	at := func(ns int64) time.Time { return rec.epoch.Add(time.Duration(ns)) }
	add := func(layer, name string, req, start, end int64) {
		if layer != drop {
			rec.record(layer, name, req, at(start), at(end))
		}
	}
	for _, r := range []struct {
		req        int64
		kind       string
		claim, due int64
	}{{1, "recommend", 0, 600}, {2, "submit", 0, 100}} {
		add("loadgen", r.kind, r.req, r.claim, 1000)
		add("http", r.kind, r.req, r.due, 1000)
		add("fleet", "route", r.req, r.due+20, 980)
		add("service", "handle", r.req, r.due+40, 960)
	}
	return rec.finish(), 2 * 1000
}

func TestCoverageGateFailsWithoutALayer(t *testing.T) {
	spans, wall := servedWindow("")
	rep := newReport()
	rep.checkCoverage(selfTimes(spans), wall)
	if len(rep.failures) != 0 || rep.layer["trace.coverage_ratio"] != 1 {
		t.Fatalf("whole window: coverage %v, failures %v", rep.layer["trace.coverage_ratio"], rep.failures)
	}
	// Without the generator's spans the workers' wait is unaccounted for.
	spans, wall = servedWindow("loadgen")
	rep = newReport()
	rep.checkCoverage(selfTimes(spans), wall)
	if len(rep.failures) != 1 {
		t.Fatalf("coverage %v without loadgen spans passed the gate", rep.layer["trace.coverage_ratio"])
	}
}

func TestExercisedGateFailsWithoutALayer(t *testing.T) {
	fromSpans := map[string]bool{"service.recommend_ms": true, "service.submit_ms": true,
		"http.overhead_ms": true, "fleet.router_hop_ms": true}
	run := func(drop string) *report {
		rep := newReport()
		for _, name := range exercised["mixed"] {
			if !fromSpans[name] {
				rep.layer.set(name, 1)
			}
		}
		spans, _ := servedWindow(drop)
		requestLayers(spans, rep)
		rep.checkExercised("mixed")
		return rep
	}
	if rep := run(""); len(rep.failures) != 0 {
		t.Fatalf("whole window: %v", rep.failures)
	}
	// A missing inner layer leaves coverage whole — its time becomes the
	// outer layer's self time — so the unmeasured metrics must fail the run.
	for _, drop := range []string{"service", "fleet", "http"} {
		if rep := run(drop); len(rep.failures) == 0 {
			t.Errorf("no %s spans: run passed", drop)
		}
	}
	// Every exercised metric is a reported one.
	names := map[string]bool{}
	for _, d := range perLayer {
		names[d.Name] = true
	}
	for wl, list := range exercised {
		for _, name := range list {
			if !names[name] {
				t.Errorf("%s exercises %s, which is not a per-layer metric", wl, name)
			}
		}
	}
}

func TestPushNestsSequentialSpans(t *testing.T) {
	rec := newRecorder()
	endRoot := rec.push("bench", "pass")
	endJob := rec.push("dag", "RunJob")
	rec.push("exec", "RunWave")()
	endJob()
	endRoot()
	spans := rec.finish()
	if len(spans) != 3 || spans[0].Parent != 0 || spans[1].Parent != spans[0].ID || spans[2].Parent != spans[1].ID {
		t.Fatalf("spans not nested: %+v", spans)
	}
}

func TestNilRecorderIsUntraced(t *testing.T) {
	var rec *recorder
	rec.push("exec", "RunWave")()
	rec.record("http", "x", 1, time.Now(), time.Now())
}
