// Command perfbench is the repository's benchmark: it drives the CHOPPER
// reproduction end to end on one of two workloads — tune (the offline tuning
// pipeline) and mixed (reads and writes through a replicated chopperfleet) —
// checks that every output is correct, and prints one JSON result line. See
// README.md.
//
//	go run . --workload tune --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics of an untraced run (--trace 0). Each workload
// reports every one; README.md maps them onto each workload's operation.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run (--trace 1). A metric that a
// workload does not exercise reports 0; one that it does (exercised) must be
// measured.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workloads.self_s", "s"},
		{"dag.jobs", "count"},
		{"dag.stages", "count"},
		{"dag.self_s", "s"},
		{"exec.busy_s", "s"},
		{"exec.waves", "count"},
		{"exec.tasks", "count"},
		{"shuffle.blocks", "count"},
		{"shuffle.write_bytes", "bytes"},
		{"shuffle.read_remote_bytes", "bytes"},
		{"shuffle.locality_ratio", "ratio"},
		{"rdd.records", "count"},
	}
	for _, a := range apps {
		defs = append(defs, metricDef{"sim." + a + ".vanilla_s", "s"}, metricDef{"sim." + a + ".tuned_s", "s"})
	}
	return append(defs,
		metricDef{"core.optimize_ms", "ms"},
		metricDef{"core.optimize_calls", "count"},
		metricDef{"core.clone_us", "us"},
		metricDef{"core.db_samples", "count"},
		metricDef{"core.journal_records", "count"},
		metricDef{"service.recommend_ms", "ms"},
		metricDef{"service.submit_ms", "ms"},
		metricDef{"service.queue_depth_max", "count"},
		metricDef{"service.rejected", "count"},
		metricDef{"http.overhead_ms", "ms"},
		metricDef{"fleet.router_hop_ms", "ms"},
		metricDef{"fleet.repl_lag_bytes_max", "bytes"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"runtime.alloc_bytes", "bytes"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"loadgen.late_p99_ms", "ms"},
		metricDef{"loadgen.backlog_max", "count"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"trace.coverage_ratio", "ratio"},
	)
}()

// exercised lists, per workload, the per-layer metrics its traced run
// measures. A traced run that leaves one of them unset fails: a layer whose
// spans or counts went missing must not read as 0.
var exercised = map[string][]string{
	"tune": append([]string{
		"workloads.self_s", "dag.jobs", "dag.stages", "dag.self_s",
		"exec.busy_s", "exec.waves", "exec.tasks",
		"shuffle.blocks", "shuffle.write_bytes", "shuffle.read_remote_bytes", "shuffle.locality_ratio",
		"rdd.records", "core.optimize_ms", "core.optimize_calls", "core.db_samples",
	}, commonLayers()...),
	"mixed": append([]string{
		"dag.stages", "exec.tasks", "shuffle.write_bytes",
		"core.optimize_ms", "core.optimize_calls", "core.clone_us", "core.db_samples", "core.journal_records",
		"service.recommend_ms", "service.submit_ms", "service.queue_depth_max", "service.rejected",
		"http.overhead_ms", "fleet.router_hop_ms", "fleet.repl_lag_bytes_max",
		"loadgen.late_p99_ms", "loadgen.backlog_max",
	}, commonLayers()...),
}

// commonLayers are the per-layer metrics every traced run measures.
func commonLayers() []string {
	names := []string{"runtime.gc_pause_ms", "runtime.alloc_bytes", "runtime.gc_cycles",
		"trace.overhead_pct", "trace.coverage_ratio"}
	for _, a := range apps {
		names = append(names, "sim."+a+".vanilla_s", "sim."+a+".tuned_s")
	}
	return names
}

// setupRepeats is how many times a workload whose set-up is cheap repeats
// it; setup_s is the median.
const setupRepeats = 5

type runConfig struct {
	workload string
	seed     int64
	window   time.Duration // --seconds
	trace    bool
	out      string // span and scratch directory
}

type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// report accumulates one run's results.
type report struct {
	attempted, failed int
	failures          []string
	e2e, layer        metricSet
}

func newReport() *report { return &report{e2e: metricSet{}, layer: metricSet{}} }

func (r *report) printf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// check records a correctness check; a failed one fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	fmt.Printf("CHECK FAILED: %s\n", msg)
}

// named prints one of the headline metrics (tune_s, recommend_p99_ms, …)
// with its unit and sample count.
func (r *report) named(name string, v float64, unit string, n int) {
	fmt.Printf("metric %-20s %14.4f %-6s (n=%d)\n", name, v, unit, n)
}

// traceOverhead prints and records traced minus untraced end-to-end time.
func (r *report) traceOverhead(delta, base float64) {
	fmt.Printf("tracing overhead: %+.4f (traced minus untraced, base %.4f)\n", delta, base)
	if base > 0 {
		r.layer.set("trace.overhead_pct", 100*delta/base)
	}
}

// writeTrace writes the spans and the per-layer self-time table, and checks
// that the layers account for wall, the time the traced section took as the
// program measured it with its own clock, not from the spans.
func (r *report) writeTrace(cfg runConfig, spans []span, rows []layerRow, wall int64) error {
	var tb strings.Builder
	writeTable(&tb, cfg.workload, rows, wall)
	fmt.Print(tb.String())
	r.checkCoverage(rows, wall)
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, spans, tb.String()); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), path)
	return nil
}

// checkCoverage checks that the layers other than the benchmark's own
// (bench) account for 90–110% of wall.
func (r *report) checkCoverage(rows []layerRow, wall int64) {
	var covered int64
	for _, row := range rows {
		if row.Layer != "bench" {
			covered += row.Self
		}
	}
	ratio := 0.0
	if wall > 0 {
		ratio = float64(covered) / float64(wall)
	}
	r.layer.set("trace.coverage_ratio", ratio)
	r.check(ratio >= 0.9 && ratio <= 1.1, "layer self times cover %.3f of the traced time, want within 10%%", ratio)
}

// checkExercised fails the run if a per-layer metric the workload exercises
// was not measured.
func (r *report) checkExercised(workload string) {
	for _, name := range exercised[workload] {
		_, ok := r.layer[name]
		r.check(ok, "%s: per-layer metric %s was not measured", workload, name)
	}
}

// recordPeakRSS sets peak_rss_mb to the process's peak resident set so far.
// A workload calls it right after its measured window, before the checks,
// the probes and the traced window, which are not the measured work.
func (r *report) recordPeakRSS() error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.e2e.set("peak_rss_mb", rss)
	r.named("peak_rss_mb", rss, "MB", 1)
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the final JSON line: every end-to-end metric untraced,
// every per-layer metric traced.
func (r *report) resultLine(trace bool) (string, error) {
	res := result{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, r.e2e
	if trace {
		defs, vals = perLayer, r.layer
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && !trace {
			return "", fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(res)
	return string(b), err
}

func main() {
	var cfg runConfig
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: tune or mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the datasets and the request mix")
	flag.IntVar(&seconds, "seconds", 25, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for spans and stores")
	flag.Parse()
	cfg.window, cfg.trace = time.Duration(seconds)*time.Second, trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	run := map[string]func(runConfig, *report) error{
		"tune":  runTune,
		"mixed": runMixed,
	}[cfg.workload]
	if run == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want tune or mixed)\n", cfg.workload)
		os.Exit(2)
	}
	rep := newReport()
	if err := run(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if cfg.trace {
		rep.checkExercised(cfg.workload)
	}
	ratio := 0.0
	if rep.attempted > 0 {
		ratio = float64(rep.failed) / float64(rep.attempted)
	}
	rep.named("fail_ratio", ratio, "ratio", rep.attempted)
	line, err := rep.resultLine(cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if len(rep.failures) > 0 {
		os.Exit(1)
	}
}
