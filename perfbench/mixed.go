package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"chopper"
	"chopper/api"
	"chopper/internal/fleet"
	"chopper/internal/service"
)

// The mixed workload's open loop: routed recommends at a fixed rate, tuned
// submits at a few per second, and a small incremental train now and then.
const (
	mixedReadRate   = 100.0
	mixedSubmitRate = 4.0 // 100 submits in a 25 s window: ten beyond the p90
	mixedTrainEvery = 5 * time.Second
	// warmUp is an unmeasured window before the measured one: the first
	// second after training runs into the collection of the training
	// garbage.
	warmUp = time.Second
)

// fleetUnderTest is one primary (on-disk store, fsync on) and one replica
// pulling its journal, behind a fleet.Router.
type fleetUnderTest struct {
	primary, replica *daemon
	router           *fleet.Router
	front            *frontend
	stopRouter       chan struct{}
	routerDone       chan struct{}
	dir              string
}

func startFleet(dir string, tr *tracer) (*fleetUnderTest, error) {
	f := &fleetUnderTest{dir: dir}
	var err error
	if f.primary, err = startDaemon(service.Config{StorePath: filepath.Join(dir, "primary.db"), Role: "primary", ShardCount: 1}, tr); err != nil {
		return nil, err
	}
	if f.replica, err = startDaemon(service.Config{StorePath: filepath.Join(dir, "replica.db"), Role: "replica",
		ShardCount: 1, PrimaryURL: f.primary.front.url}, tr); err != nil {
		_ = f.stop() // the start-up error is the one to report
		return nil, err
	}
	topo := fleet.Topology{Shards: []fleet.Shard{{Primary: f.primary.front.url, Replicas: []string{f.replica.front.url}}}}
	if f.router, err = fleet.NewRouter(fleet.RouterConfig{Topology: topo, ProbeInterval: 100 * time.Millisecond}); err != nil {
		_ = f.stop() // the start-up error is the one to report
		return nil, err
	}
	f.stopRouter, f.routerDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(f.routerDone)
		f.router.Run(f.stopRouter)
	}()
	if f.front, err = serve(tr.wrap("fleet", f.router.Handler())); err != nil {
		_ = f.stop() // the start-up error is the one to report
		return nil, err
	}
	return f, nil
}

// stop shuts the fleet down front to back and removes its stores.
func (f *fleetUnderTest) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var errs []error
	if f.front != nil {
		errs = append(errs, f.front.stop(ctx))
	}
	if f.stopRouter != nil {
		close(f.stopRouter)
		<-f.routerDone
	}
	for _, d := range []*daemon{f.replica, f.primary} {
		if d != nil {
			errs = append(errs, d.stop(ctx))
		}
	}
	errs = append(errs, os.RemoveAll(f.dir))
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// waitSynced waits until the replica holds the primary's whole journal and
// the router routes reads to it.
func (f *fleetUnderTest) waitSynced(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var st api.ReplStatus
		raw, err := getRaw(f.primary.front.url, "/v1/repl/status")
		if err == nil {
			err = jsonUnmarshal(raw, &st)
		}
		if err != nil {
			return err
		}
		h, err := health(f.replica)
		if err != nil {
			return err
		}
		var rh api.RouterHealth
		if raw, err = getRaw(f.front.url, "/healthz"); err == nil {
			err = jsonUnmarshal(raw, &rh)
		}
		if err != nil {
			return err
		}
		ready := len(rh.Shards) == 1 && len(rh.Shards[0].Backends) == 2 && rh.Shards[0].Backends[1].Ready
		if h.Status == "ok" && h.ReplicationEpoch == st.Epoch && h.ReplicationPos == st.JournalSize && ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica not caught up after %v: pos %d of %d, status %s", timeout, h.ReplicationPos, st.JournalSize, h.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// mixedSchedule merges a window's three op streams in due order; all of
// them share the generator's two connections. The seed picks every op's app.
func mixedSchedule(seed int64, d time.Duration, ids *int64) []op {
	ops := schedule(mixedReadRate, d, 0, mixPicker(seed, "recommend"))
	ops = append(ops, schedule(mixedSubmitRate, d, 0, mixPicker(seed+1, "submit"))...)
	trains := float64(time.Second) / float64(mixedTrainEvery)
	ops = append(ops, schedule(trains, d, mixedTrainEvery/2, mixPicker(seed+2, "train"))...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Due < ops[j].Due })
	return number(ops, ids)
}

// vanillaReference runs each app once, vanilla, exactly as chopperd builds a
// submitted job (default seed, default shrink): the checksum every submit
// of that app must reproduce.
func vanillaReference() (map[string]float64, map[string]float64, error) {
	sums, sims := map[string]float64{}, map[string]float64{}
	for _, app := range apps {
		b, err := chopper.Builtin(app)
		if err != nil {
			return nil, nil, err
		}
		b.Shrink(shrink)
		sess := chopper.NewSession()
		if err := b.Run(sess, b.InputBytes()); err != nil {
			return nil, nil, fmt.Errorf("vanilla reference %s: %w", app, err)
		}
		sums[app], sims[app] = b.LastResult["checksum"], sess.Elapsed()
	}
	return sums, sims, nil
}

// runMixed drives the mixed workload.
func runMixed(cfg runConfig, rep *report) error {
	tr := &tracer{}
	t0 := time.Now()
	dir := filepath.Join(cfg.out, fmt.Sprintf("mixed-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := startFleet(dir, tr)
	if err != nil {
		return err
	}
	defer func() {
		if err := f.stop(); err != nil {
			rep.check(false, "fleet shutdown: %v", err)
		}
	}()
	if err := trainAll(f.front.url); err != nil {
		return fmt.Errorf("train: %w", err)
	}
	refSums, refSims, err := vanillaReference()
	if err != nil {
		return err
	}
	if err := f.waitSynced(time.Minute); err != nil {
		return err
	}
	setup := time.Since(t0)
	rep.e2e.set("setup_s", setup.Seconds())
	rep.printf("mixed: set-up (primary+replica+router, train 4 apps via the router, replica caught up) %.3f s", setup.Seconds())

	snd := newSender(f.front.url, tr)
	var ids int64
	countOutcomes(snd.run(mixedSchedule(cfg.seed+4, warmUp, &ids)), rep)
	win := cfg.window
	if cfg.trace {
		win = cfg.window / 2
	}
	cpu0 := cpuTime()
	outs := snd.run(mixedSchedule(cfg.seed, win, &ids))
	cpu := cpuTime() - cpu0
	if err := rep.recordPeakRSS(); err != nil {
		return err
	}
	countOutcomes(outs, rep)
	rlat, _ := latencies(outs, "recommend")
	slat, _ := latencies(outs, "submit")
	// The gate follows the writes — the only path through the worker pool,
	// journal fsync and journal shipping. Reads under writes are reported
	// beside them: on two shared cores their latency swings by more than any
	// bound the gate could hold (README.md, "Steadiness").
	rep.e2e.set("latency_ms", appCentral(outs, "submit"))
	rep.e2e.set("cpu_ms_per_op", ms(cpu)/float64(len(outs)))
	rep.named("submit_p50_ms", quantile(append([]float64(nil), slat...), 0.5), "ms", len(slat))
	rep.named("submit_p90_ms", quantile(append([]float64(nil), slat...), 0.9), "ms", len(slat))
	rep.named("recommend_p50_ms", quantile(append([]float64(nil), rlat...), 0.5), "ms", len(rlat))
	rep.named("recommend_p99_ms", quantile(append([]float64(nil), rlat...), 0.99), "ms", len(rlat))
	rep.printf("mixed: recommend p90 %.3f ms", quantile(rlat, 0.9))
	rep.printf("mixed: %d ops in %v; recommend p99 has %d samples beyond it, submit p90 %d",
		len(outs), win, beyond(len(rlat), 0.99), beyond(len(slat), 0.9))
	late, backlog := generatorHealth(outs)
	rep.printf("loadgen: late p99 %.3f ms, peak backlog %d", late, backlog)

	if cfg.trace {
		n0 := len(snd.submits)
		err := traceWindow(cfg, rep, tr, f.primary, f.replica, f.replica.srv.DB(), outs, func() []outcome {
			return snd.run(mixedSchedule(cfg.seed+3, win, &ids))
		})
		if err != nil {
			return err
		}
		submitLayers(snd.submits[n0:], refSims, rep)
		if h, err := health(f.primary); err == nil {
			rep.layer.set("core.journal_records", float64(h.JournalRecords))
		}
	}

	// After drain: the primary serves GenerateConfig on a snapshot of its
	// DB, the replica answers exactly as the primary does, and every tuned
	// submit computed the vanilla result.
	if err := f.waitSynced(time.Minute); err != nil {
		return err
	}
	for _, app := range apps {
		p, err := getRaw(f.primary.front.url, "/v1/recommend?workload="+app)
		if err != nil {
			return err
		}
		want, err := expectedRecommend(f.primary.srv.DB(), app)
		if err != nil {
			return err
		}
		rep.check(bytes.Equal(p, want), "mixed %s: primary's recommendation differs from GenerateConfig on a snapshot", app)
		r, err := getRaw(f.replica.front.url, "/v1/recommend?workload="+app)
		if err != nil {
			return err
		}
		rep.check(bytes.Equal(p, r), "mixed %s: replica recommendation differs from the primary's after drain", app)
	}
	for _, s := range snd.submits {
		rep.check(s.Mode == "chopper" && sameResult(s.Checksum, refSums[s.Workload]),
			"mixed: tuned submit of %s: mode %s, checksum %v, vanilla %v", s.Workload, s.Mode, s.Checksum, refSums[s.Workload])
	}
	// No request may fail anywhere: warm-up, measured and traced windows.
	rep.check(rep.failed == 0, "mixed: %d of %d requests failed", rep.failed, rep.attempted)
	return nil
}

// submitLayers reports the engine counts and simulated seconds of the
// traced window's submits, from their responses.
func submitLayers(subs []api.SubmitResponse, refSims map[string]float64, rep *report) {
	var stages, tasks int
	var write int64
	sims := map[string][]float64{}
	for _, s := range subs {
		for _, st := range s.Stages {
			stages++
			tasks += st.Tasks
			write += st.ShuffleWrite
		}
		sims[s.Workload] = append(sims[s.Workload], s.SimSeconds)
	}
	rep.layer.set("dag.stages", float64(stages))
	rep.layer.set("exec.tasks", float64(tasks))
	rep.layer.set("shuffle.write_bytes", float64(write))
	for _, app := range apps {
		rep.layer.set("sim."+app+".vanilla_s", refSims[app])
		if xs := sims[app]; len(xs) > 0 {
			rep.layer.set("sim."+app+".tuned_s", median(xs))
		}
	}
}
