// Command chopperverify is the workload gate: it runs CHOPPER's plan and
// configuration verifiers end to end over the built-in workloads (the same
// pipelines the examples/ programs build) and checks the static plan and
// key-fact models against what the runtime actually builds. For every
// workload it
//
//   - extracts the stage graphs and per-RDD key facts statically, without
//     running the workload (internal/plan/extract), and checks the
//     extracted plans against the plan-IR invariants;
//   - executes a vanilla run, forced uniform hash/range configurations at
//     the extremes of the search grid, and the full CHOPPER pipeline
//     (profile → optimize → tuned co-partitioned run), with the plan-IR
//     verifier (internal/plan/verify: acyclicity, shuffle boundaries at
//     wide dependencies, co-partitioned join inputs, partition counts
//     within the executors' memory budget, partitioner/key-type
//     compatibility) observing every job's stage graph, and the
//     configuration verifier (core.VerifySchemes: known signatures, valid
//     schemes, counts inside the searched grid, join groups agreeing on
//     one scheme, fixed stages only retuned through inserted repartition
//     phases) checking every optimizer emission; and
//   - diffs the static stage graphs (plan drift) and key shapes (key-fact
//     drift) against the plans and lineage the vanilla run submits, job
//     for job.
//
// Findings carry the rule plan, config, drift or keyfacts. Drift means
// either the workload's control flow has outgrown the symbolic evaluator's
// model, or a change to the rdd/dag layers silently altered the stage or
// key structure the paper's figures and the optimizer are keyed to.
//
// Usage:
//
//	chopperverify [-workload=all|kmeans|pca|sql|pagerank] [-shrink=N] [-v] [-json]
//
// Datasets are shrunk by -shrink (default 6) so the sweep stays fast;
// logical sizes and the cost model are unchanged, so the plans exercised
// are the real ones. The -json flag emits findings on stdout in the
// unified wire schema shared with chopperlint (tool/rule/pos/msg/
// severity); human-readable lines move to stderr. Exit status: 0 clean,
// 1 findings, 2 run error.
package main

import (
	"flag"
	"fmt"
	"os"

	"chopper/internal/cluster"
	"chopper/internal/core"
	"chopper/internal/dag"
	"chopper/internal/experiments"
	"chopper/internal/lint"
	"chopper/internal/plan/extract"
	"chopper/internal/plan/verify"
	"chopper/internal/rdd"
	"chopper/internal/workloads"
)

func main() {
	workload := flag.String("workload", "all", "workload to verify (all, kmeans, pca, sql, pagerank)")
	shrink := flag.Int("shrink", 6, "dataset shrink factor for fast runs (1 = paper size)")
	verbose := flag.Bool("v", false, "list every run, not just violations")
	jsonOut := flag.Bool("json", false, "emit findings on stdout in the unified wire-JSON schema")
	flag.Parse()
	os.Exit(run(*workload, *shrink, *verbose, *jsonOut))
}

// reporter accumulates findings in the unified wire schema while printing
// human-readable lines (to stdout normally, stderr under -json, which
// reserves stdout for the array).
type reporter struct {
	json bool
	wire []lint.WireDiagnostic
}

func (r *reporter) finding(rule, pos, msg string) {
	r.wire = append(r.wire, lint.WireDiagnostic{
		Tool: "chopperverify", Rule: rule, Pos: pos, Msg: msg, Severity: "error",
	})
	out := os.Stdout
	if r.json {
		out = os.Stderr
	}
	_, _ = fmt.Fprintf(out, "%s: %s: %s\n", pos, rule, msg)
}

func run(name string, shrink int, verbose, jsonOut bool) int {
	var targets []workloads.Workload
	if name == "all" {
		targets = workloads.AllWithExtensions()
	} else {
		w, err := workloads.ByName(name)
		if err != nil {
			return fail(err)
		}
		targets = []workloads.Workload{w}
	}

	ex, err := extract.New(".")
	if err != nil {
		return fail(err)
	}

	rep := &reporter{json: jsonOut}
	for _, w := range targets {
		workloads.Shrink(w, shrink)
		if err := verifyWorkload(w, ex, verbose, rep); err != nil {
			return fail(fmt.Errorf("%s: %w", w.Name(), err))
		}
	}
	if jsonOut {
		if err := lint.WriteWire(os.Stdout, rep.wire); err != nil {
			return fail(err)
		}
	}
	if len(rep.wire) > 0 {
		fmt.Fprintf(os.Stderr, "chopperverify: %d finding(s)\n", len(rep.wire))
		return 1
	}
	if verbose {
		fmt.Fprintln(os.Stderr, "chopperverify: all plans, configurations and static models verified clean")
	}
	return 0
}

// verifyWorkload extracts one workload's plans and key facts statically
// and verifies the plans, then runs the workload under every configuration
// class with the verifiers observing, diffs the static models against the
// vanilla run, and reports every finding through r.
func verifyWorkload(w workloads.Workload, ex *extract.Extractor, verbose bool, r *reporter) error {
	planObserver := func(label string) func([]verify.Violation) {
		return func(vs []verify.Violation) {
			for _, v := range vs {
				r.finding("plan", w.Name()+"/"+label, v.String())
			}
		}
	}
	schemeObserver := func(label string) func(string, []core.SchemeViolation) {
		return func(_ string, vs []core.SchemeViolation) {
			for _, v := range vs {
				r.finding("config", w.Name()+"/"+label, v.String())
			}
		}
	}
	step := func(label string) {
		if verbose {
			fmt.Fprintf(os.Stderr, "chopperverify: %s: %s\n", w.Name(), label)
		}
	}
	bytes := w.DefaultInputBytes()

	// Static extraction: reconstruct the plans and key facts without
	// running, verify the plans, and capture the vanilla run below for the
	// drift diffs.
	step("static-extract")
	rep, err := ex.Extract(w, bytes, experiments.DefaultParallelism)
	if err != nil {
		return err
	}
	if verbose {
		for i, j := range rep.Jobs {
			fmt.Fprintf(os.Stderr, "  job %d (%s):\n", i, j.Action)
			for _, sh := range extract.Shape(j.Plan, j.Topo) {
				fmt.Fprintf(os.Stderr, "    %s\n", sh)
			}
		}
	}
	for _, v := range rep.Verify(verify.DefaultLimits(cluster.PaperCluster())) {
		r.finding("plan", w.Name()+"/static", v.String())
	}
	var plans extract.Capture
	var keys extract.KeyCapture
	planHook, keyHook := plans.Hook(), keys.Hook()
	onPlan := func(result *dag.Stage, topo []*dag.Stage) {
		planHook(result, topo)
		keyHook(result, topo)
	}

	// Vanilla plus the extremes of the search grid: the widest partition
	// counts stress the memory-bound check, the range scheme stresses the
	// partitioner-compatibility checks.
	forced := []struct {
		label string
		cfg   dag.StageConfigurator
	}{
		{"vanilla", nil},
		{"force-hash-2000", &core.ForceAll{Spec: dag.SchemeSpec{Scheme: rdd.SchemeHash, NumPartitions: 2000}}},
		{"force-range-100", &core.ForceAll{Spec: dag.SchemeSpec{Scheme: rdd.SchemeRange, NumPartitions: 100}}},
	}
	for _, f := range forced {
		step(f.label)
		opt := experiments.Options{Configurator: f.cfg, OnPlanViolations: planObserver(f.label)}
		if f.cfg == nil {
			opt.OnPlan = onPlan
		}
		if _, _, err := experiments.RunWorkload(w, bytes, opt); err != nil {
			return err
		}
	}
	for _, d := range extract.Drift(rep, plans.Jobs()) {
		r.finding("drift", w.Name()+"/static", d)
	}
	for _, d := range extract.KeyDrift(rep, keys.Jobs()) {
		r.finding("keyfacts", w.Name()+"/static", d)
	}

	// The full pipeline: profiling sweep, optimization (configuration
	// verifier), tuned co-partitioned run (plan verifier over the retuned
	// stage graphs).
	step("chopper-pipeline")
	plan := experiments.ProfilePlan{
		SizeFractions: []float64{0.5, 1.0},
		Partitions:    []int{150, 300, 450, 600},
		Schemes:       []rdd.SchemeName{rdd.SchemeHash, rdd.SchemeRange},
	}
	opt := experiments.Options{
		OnPlanViolations:   planObserver("chopper-pipeline"),
		OnSchemeViolations: schemeObserver("chopper-pipeline"),
	}
	if _, err := experiments.Compare(w, bytes, plan, opt); err != nil {
		return err
	}
	return nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "chopperverify:", err)
	return 2
}
