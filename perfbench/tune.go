package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"chopper"
	"chopper/internal/cluster"
	"chopper/internal/config"
	"chopper/internal/core"
	"chopper/internal/dag"
	"chopper/internal/exec"
	"chopper/internal/metrics"
	"chopper/internal/plan/verify"
	"chopper/internal/rdd"
	"chopper/internal/workloads"
)

// apps are the four built-in workloads every workload of the benchmark
// spreads over, in a fixed order.
var apps = []string{"kmeans", "pca", "sql", "pagerank"}

// shrink is the physical-dataset shrink factor of every job: chopperd's
// default, so tune's production runs are the size of a served submit.
const shrink = 12

// oracleParallelism is the default parallelism of the rdd.LocalRunner
// oracle. Its shuffle read costs O(maps × reduces) — about 21 s for the four
// apps at the engine's 300 — so it runs at 30; results agree up to float
// summation order (see sameResult).
const oracleParallelism = 30

// seeded builds a built-in workload at the benchmark's shrink with its
// dataset seed set from the benchmark's --seed.
func seeded(name string, seed int64) (workloads.Workload, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	workloads.Shrink(w, shrink)
	switch x := w.(type) {
	case *workloads.KMeans:
		x.Seed = seed
	case *workloads.PCA:
		x.Seed = seed
	case *workloads.SQL:
		x.Seed = seed
	case *workloads.PageRank:
		x.Seed = seed
	default:
		return nil, fmt.Errorf("no seed field on workload %q", name)
	}
	return w, nil
}

// sameResult is the checksum agreement the engine promises across
// partitionings: equal up to float reassociation (relative 1e-9), the
// tolerance being far below any wrong-result error.
func sameResult(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// job is one timed App.Run of the tuning pipeline.
type job struct {
	wall     time.Duration
	sim      float64
	checksum float64
}

// tunedApp is a seeded workload wrapped as a chopper.App that records every
// run the Tuner makes of it.
type tunedApp struct {
	w    workloads.Workload
	jobs []job
}

func (a *tunedApp) app() chopper.App {
	return chopper.AppFunc{AppName: a.w.Name(), Bytes: a.w.DefaultInputBytes(), Fn: a.run}
}

func (a *tunedApp) run(sess *chopper.Session, inputBytes int64) error {
	start := time.Now()
	res, err := a.w.Run(sess.Context(), inputBytes)
	if err != nil {
		return err
	}
	a.jobs = append(a.jobs, job{wall: time.Since(start), sim: sess.Elapsed(), checksum: res.Checksum})
	return nil
}

// appPass is one app's result in a tuning pass.
type appPass struct {
	name           string
	profileJobs    []job // Tuner.Profile's runs; the first is the default run at full size
	optimize       time.Duration
	cf             *chopper.ConfigFile
	vanilla, tuned job
	samples        int
}

// tunePass is the Fig. 7 pipeline for a library user, once over every app:
// Tuner.Profile with the default trial plan, Optimize, one vanilla and one
// tuned production run.
func tunePass(ws []workloads.Workload) ([]appPass, time.Duration, error) {
	start := time.Now()
	tuner := chopper.NewTuner()
	var out []appPass
	for _, w := range ws {
		ta := &tunedApp{w: w}
		app := ta.app()
		if err := tuner.Profile(app); err != nil {
			return nil, 0, err
		}
		p := appPass{name: w.Name(), profileJobs: ta.jobs}
		t0 := time.Now()
		cf, err := tuner.Optimize(app)
		if err != nil {
			return nil, 0, fmt.Errorf("optimize %s: %w", w.Name(), err)
		}
		p.optimize, p.cf = time.Since(t0), cf
		ta.jobs = nil
		if err := app.Run(chopper.NewSession(), app.InputBytes()); err != nil {
			return nil, 0, fmt.Errorf("vanilla %s: %w", w.Name(), err)
		}
		if err := app.Run(chopper.NewSession(chopper.WithTuning(cf)), app.InputBytes()); err != nil {
			return nil, 0, fmt.Errorf("tuned %s: %w", w.Name(), err)
		}
		p.vanilla, p.tuned = ta.jobs[0], ta.jobs[1]
		p.samples = tuner.DB.SampleCount(w.Name())
		out = append(out, p)
	}
	return out, time.Since(start), nil
}

// oracleChecksum evaluates w on the single-threaded rdd.LocalRunner.
func oracleChecksum(w workloads.Workload) (float64, error) {
	ctx := rdd.NewContext(oracleParallelism)
	ctx.SetRunner(rdd.NewLocalRunner())
	res, err := w.Run(ctx, w.DefaultInputBytes())
	if err != nil {
		return 0, fmt.Errorf("oracle %s: %w", w.Name(), err)
	}
	return res.Checksum, nil
}

// runTune drives the tune workload.
func runTune(cfg runConfig, rep *report) error {
	ws := make([]workloads.Workload, len(apps))
	for i, name := range apps {
		w, err := seeded(name, cfg.seed)
		if err != nil {
			return err
		}
		ws[i] = w
	}

	// Set-up: one vanilla run of each app, so lazy initialization and heap
	// growth are paid before timing. Repeated; the median is setup_s.
	var setups []float64
	warm := make([]job, len(ws))
	for r := 0; r < setupRepeats; r++ {
		t0 := time.Now()
		for i, w := range ws {
			ta := &tunedApp{w: w}
			if err := ta.app().Run(chopper.NewSession(), w.DefaultInputBytes()); err != nil {
				return fmt.Errorf("warm-up %s: %w", w.Name(), err)
			}
			warm[i] = ta.jobs[0]
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.e2e.set("setup_s", median(setups))

	// Measured window: whole passes until --seconds have elapsed.
	cpu0 := cpuTime()
	var passes [][]appPass
	var walls []time.Duration
	for len(passes) == 0 || sumDur(walls) < cfg.window {
		p, wall, err := tunePass(ws)
		if err != nil {
			return err
		}
		passes, walls = append(passes, p), append(walls, wall)
	}
	cpu := cpuTime() - cpu0
	if err := rep.recordPeakRSS(); err != nil {
		return err
	}

	var jobMs []float64
	for _, pass := range passes {
		for _, p := range pass {
			for _, j := range append(append([]job(nil), p.profileJobs...), p.vanilla, p.tuned) {
				jobMs = append(jobMs, ms(j.wall))
			}
		}
	}
	rep.attempted += len(jobMs)
	// The jobs are a fixed, heterogeneous set (31 grid points × 4 apps), whose
	// median falls in a gap between job sizes and jumps between them from run
	// to run; their mean — the pass's job time per job — is the steady
	// central figure.
	var sum float64
	for _, x := range jobMs {
		sum += x
	}
	rep.e2e.set("latency_ms", sum/float64(len(jobMs)))
	rep.e2e.set("cpu_ms_per_op", ms(cpu)/float64(len(jobMs)))
	rep.printf("tune: %d pass(es), %d jobs; job mean %.1f ms, p50 %.1f ms, p90 %.1f ms (%d beyond)",
		len(passes), len(jobMs), rep.e2e["latency_ms"], quantile(jobMs, 0.5), quantile(jobMs, 0.9), beyond(len(jobMs), 0.9))

	var tuneS []float64
	for _, w := range walls {
		tuneS = append(tuneS, w.Seconds())
	}
	rep.named("tune_s", median(tuneS), "s", len(tuneS))

	// Correctness and the quality number, from the first pass.
	pass := passes[0]
	var ratios []float64
	for i, p := range pass {
		w := ws[i]
		oracle, err := oracleChecksum(w)
		if err != nil {
			return err
		}
		rep.check(p.vanilla.checksum == warm[i].checksum && sameResult(p.vanilla.checksum, oracle),
			"%s: vanilla checksum %v, warm-up %v, LocalRunner oracle %v", p.name, p.vanilla.checksum, warm[i].checksum, oracle)
		rep.check(sameResult(p.tuned.checksum, p.vanilla.checksum),
			"%s: tuned checksum %v != vanilla %v", p.name, p.tuned.checksum, p.vanilla.checksum)
		// The profile's default run, the warm-up and the vanilla production
		// run are the same seeded job: their simulated seconds must match
		// bit for bit.
		def := p.profileJobs[0]
		rep.check(math.Float64bits(def.sim) == math.Float64bits(p.vanilla.sim) &&
			math.Float64bits(warm[i].sim) == math.Float64bits(p.vanilla.sim),
			"%s: sim.seconds not deterministic: profile default %v, warm-up %v, vanilla %v", p.name, def.sim, warm[i].sim, p.vanilla.sim)
		for _, later := range passes[1:] {
			q := later[i]
			rep.check(math.Float64bits(q.tuned.sim) == math.Float64bits(p.tuned.sim),
				"%s: tuned sim.seconds differs between passes: %v vs %v", p.name, p.tuned.sim, q.tuned.sim)
		}
		rep.check(len(p.profileJobs) == 31, "%s: profile ran %d jobs, want 31", p.name, len(p.profileJobs))
		ratios = append(ratios, p.vanilla.sim/p.tuned.sim)
		rep.printf("tune: %-8s sim vanilla %.1f s, tuned %.1f s (%.3fx); optimize %.2f ms over %d samples",
			p.name, p.vanilla.sim, p.tuned.sim, p.vanilla.sim/p.tuned.sim, ms(p.optimize), p.samples)
		rep.layer.set("sim."+p.name+".vanilla_s", p.vanilla.sim)
		rep.layer.set("sim."+p.name+".tuned_s", p.tuned.sim)
	}
	rep.named("sim_speedup", geomean(ratios), "x", len(ratios))

	if !cfg.trace {
		return nil
	}
	// Traced pass: the same pipeline on a stack assembled as
	// experiments.NewRuntime assembles it, with timing runners at the dag
	// and exec boundaries. Its results must equal the untraced pass's.
	rec := newRecorder()
	st := &stackStats{}
	rt0 := readRuntime()
	tracedPass, tracedWall, err := tracedTunePass(ws, rec, st)
	if err != nil {
		return err
	}
	runtimeLayer(rt0, readRuntime(), rep.layer)
	for i, p := range tracedPass {
		q := pass[i]
		rep.check(reflect.DeepEqual(p.cf.Entries, q.cf.Entries),
			"%s: traced pass generated another configuration than the untraced one", p.name)
		rep.check(math.Float64bits(p.vanilla.sim) == math.Float64bits(q.vanilla.sim) &&
			math.Float64bits(p.tuned.sim) == math.Float64bits(q.tuned.sim),
			"%s: traced sim.seconds %v/%v != untraced %v/%v", p.name, p.vanilla.sim, p.tuned.sim, q.vanilla.sim, q.tuned.sim)
	}
	spans := rec.finish()
	rows := selfTimes(spans)
	// exec is the innermost traced layer, so its self time is its busy time.
	for layer, name := range map[string]string{"workloads": "workloads.self_s", "dag": "dag.self_s", "exec": "exec.busy_s"} {
		if self, ok := layerSelf(rows, layer); ok {
			rep.layer.set(name, self)
		}
	}
	rep.layer.set("dag.jobs", float64(st.jobs))
	rep.layer.set("dag.stages", float64(st.stages))
	rep.layer.set("exec.waves", float64(st.waves))
	rep.layer.set("exec.tasks", float64(st.tasks))
	rep.layer.set("shuffle.blocks", float64(st.blocks))
	rep.layer.set("shuffle.write_bytes", float64(st.writeBytes))
	rep.layer.set("shuffle.read_remote_bytes", float64(st.remoteBytes))
	if all := st.localBytes + st.remoteBytes; all > 0 {
		rep.layer.set("shuffle.locality_ratio", float64(st.localBytes)/float64(all))
	}
	rep.layer.set("rdd.records", float64(st.records))
	var optMs []float64
	for _, p := range tracedPass {
		optMs = append(optMs, ms(p.optimize))
	}
	rep.layer.set("core.optimize_ms", median(optMs))
	rep.layer.set("core.optimize_calls", float64(len(optMs)))
	rep.layer.set("core.db_samples", float64(st.samples))
	rep.traceOverhead(tracedWall.Seconds()-walls[0].Seconds(), walls[0].Seconds())
	return rep.writeTrace(cfg, spans, rows, int64(tracedWall))
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// stackStats are the engine counts of the traced pass, read from each run's
// metrics.Collector and from the stages the exec boundary sees.
type stackStats struct {
	jobs, stages, waves, tasks          int
	blocks                              int64 // Σ maps × reduces over shuffle map stages
	writeBytes, localBytes, remoteBytes int64
	records                             int64
	samples                             int
}

// timedStages is the exec boundary: a dag.StageRunner that times and counts
// every call into the engine.
type timedStages struct {
	eng *exec.Engine
	rec *recorder
	st  *stackStats
}

func (t *timedStages) RunWave(stages []*dag.Stage) error {
	defer t.rec.push("exec", "RunWave")()
	t.st.waves++
	for _, s := range stages {
		t.st.stages++
		if s.OutDep != nil {
			t.st.blocks += int64(s.NumTasks()) * int64(s.OutDep.Part.NumPartitions())
		}
	}
	return t.eng.RunWave(stages)
}

func (t *timedStages) RunResult(st *dag.Stage, fn func(split int, rows []rdd.Row) (any, error)) ([]any, error) {
	defer t.rec.push("exec", "RunResult")()
	t.st.stages++
	return t.eng.RunResult(st, fn)
}

func (t *timedStages) Materialize(r *rdd.RDD, split int) ([]rdd.Row, error) {
	defer t.rec.push("exec", "Materialize")()
	return t.eng.Materialize(r, split)
}

func (t *timedStages) CachedComplete(r *rdd.RDD) bool { return t.eng.CachedComplete(r) }

// RetireShufflesExcept keeps the engine's arena retirement (dag checks for
// it by interface) working behind the wrapper.
func (t *timedStages) RetireShufflesExcept(live []int) { t.eng.RetireShufflesExcept(live) }

// timedJobs is the dag boundary: the rdd.JobRunner every action calls.
type timedJobs struct {
	sch *dag.Scheduler
	rec *recorder
	st  *stackStats
}

func (t *timedJobs) RunJob(target *rdd.RDD, fn func(split int, rows []rdd.Row) (any, error)) ([]any, error) {
	defer t.rec.push("dag", "RunJob")()
	t.st.jobs++
	return t.sch.RunJob(target, fn)
}

// tracedRun runs w once on a freshly assembled, traced stack — the same
// stack chopper.NewSession builds (paper cluster, default cost model,
// parallelism 300, strict plan verifier) — and harvests it into db when
// db is non-nil.
func tracedRun(w workloads.Workload, bytes int64, cfg dag.StageConfigurator, tuned bool,
	rec *recorder, st *stackStats, db *core.DB, isDefault bool) (job, error) {
	end := rec.push("chopper", "NewRuntime")
	mode := "spark"
	if tuned {
		mode = "chopper"
	}
	topo := cluster.PaperCluster()
	ctx := rdd.NewContext(300)
	col := metrics.NewCollector(w.Name(), mode)
	eng := exec.New(topo, cluster.DefaultCostParams(), ctx, col, tuned)
	sch := dag.NewScheduler(ctx, &timedStages{eng: eng, rec: rec, st: st})
	sch.Configurator = cfg
	recd := core.NewRecorder()
	sch.OnJob = recd.OnJob
	sch.Verify = verify.Hook(verify.DefaultLimits(topo))
	ctx.SetRunner(&timedJobs{sch: sch, rec: rec, st: st})
	end()

	endRun := rec.push("workloads", w.Name()+".Run")
	start := time.Now()
	res, err := w.Run(ctx, bytes)
	wall := time.Since(start)
	endRun()
	if err != nil {
		return job{}, fmt.Errorf("traced %s: %w", w.Name(), err)
	}
	for _, s := range col.Stages() {
		st.writeBytes += s.ShuffleWrite
		for _, t := range s.Tasks {
			st.tasks++
			st.localBytes += t.ShuffleReadLocal
			st.remoteBytes += t.ShuffleReadRemote
			st.records += t.Records
		}
	}
	if db != nil {
		defer rec.push("core", "Harvest")()
		recd.Harvest(db, w.Name(), float64(bytes), col, isDefault)
	}
	return job{wall: wall, sim: eng.Now(), checksum: res.Checksum}, nil
}

// tracedTunePass is tunePass on traced stacks: chopper.Tuner.ProfileContext's
// grid, Optimize and the two production runs, spelled out so each run's
// stack can carry the timing runners.
func tracedTunePass(ws []workloads.Workload, rec *recorder, st *stackStats) ([]appPass, time.Duration, error) {
	start := time.Now()
	endPass := rec.push("bench", "tune.pass")
	defer endPass()
	db := core.NewDB()
	plan := chopper.DefaultTrialPlan()
	schemes := []rdd.SchemeName{rdd.SchemeHash}
	if plan.Range {
		schemes = append(schemes, rdd.SchemeRange)
	}
	var out []appPass
	for _, w := range ws {
		target := w.DefaultInputBytes()
		p := appPass{name: w.Name()}
		j, err := tracedRun(w, target, nil, false, rec, st, db, true)
		if err != nil {
			return nil, 0, err
		}
		p.profileJobs = append(p.profileJobs, j)
		for _, frac := range plan.SizeFractions {
			for _, scheme := range schemes {
				for _, n := range plan.Partitions {
					force := &core.ForceAll{Spec: dag.SchemeSpec{Scheme: scheme, NumPartitions: n}}
					j, err := tracedRun(w, int64(frac*float64(target)), force, false, rec, st, db, false)
					if err != nil {
						return nil, 0, err
					}
					p.profileJobs = append(p.profileJobs, j)
				}
			}
		}
		endOpt := rec.push("core", "GenerateConfig")
		t0 := time.Now()
		cf, err := core.NewOptimizer(db).GenerateConfig(w.Name(), float64(target))
		p.optimize = time.Since(t0)
		endOpt()
		if err != nil {
			return nil, 0, fmt.Errorf("traced optimize %s: %w", w.Name(), err)
		}
		p.cf = cf
		if p.vanilla, err = tracedRun(w, target, nil, false, rec, st, nil, false); err != nil {
			return nil, 0, err
		}
		if p.tuned, err = tracedRun(w, target, &config.Static{F: cf}, true, rec, st, nil, false); err != nil {
			return nil, 0, err
		}
		p.samples = db.SampleCount(w.Name())
		st.samples += p.samples
		out = append(out, p)
	}
	return out, time.Since(start), nil
}
