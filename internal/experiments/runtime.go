// Package experiments is the evaluation harness: it wires the full stack
// (cluster, engine, scheduler, workloads, optimizer) into reproducible runs
// and regenerates every table and figure of the paper's evaluation
// (Figs. 2-4 and 7-14, Tables I-III), plus the ablations listed in
// DESIGN.md. Output structures are plain tables/series so cmd/experiments
// and bench_test.go can print them identically.
package experiments

import (
	"fmt"
	"strings"

	"chopper/internal/cluster"
	"chopper/internal/core"
	"chopper/internal/dag"
	"chopper/internal/exec"
	"chopper/internal/metrics"
	"chopper/internal/plan/verify"
	"chopper/internal/rdd"
	"chopper/internal/workloads"
)

// DefaultParallelism is the vanilla configuration's partition count
// ("set to 300 for all the workloads" in the paper's evaluation).
const DefaultParallelism = 300

// Options configures one run.
type Options struct {
	Topo               *cluster.Topology
	Params             cluster.CostParams
	DefaultParallelism int
	CoPartition        bool
	Configurator       dag.StageConfigurator
	Mode               string // label for metrics: "spark" or "chopper"

	// OnPlan, when set, observes every job's stage plan before verification
	// and cache pruning (dag.Scheduler.OnPlan). The static plan-drift gate
	// (cmd/chopperverify) captures runtime plans through this.
	OnPlan func(result *dag.Stage, topo []*dag.Stage)

	// OnPlanViolations, when set, observes plan-verifier findings instead of
	// letting them abort the job (cmd/chopperverify collects them this way).
	// The default — nil — runs the strict verifier: the whole evaluation
	// harness doubles as a plan-invariant regression suite.
	OnPlanViolations func([]verify.Violation)

	// OnSchemeViolations, when set, observes the optimizer's configuration
	// verifier (core.VerifySchemes) instead of letting findings fail
	// GenerateConfig. Same default as OnPlanViolations: strict.
	OnSchemeViolations func(workload string, vs []core.SchemeViolation)
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Topo == nil {
		o.Topo = cluster.PaperCluster()
	}
	if o.Params == (cluster.CostParams{}) {
		o.Params = cluster.DefaultCostParams()
	}
	if o.DefaultParallelism == 0 {
		o.DefaultParallelism = DefaultParallelism
	}
	if o.Mode == "" {
		o.Mode = "spark"
	}
	return o
}

// Runtime bundles the live objects of one run.
type Runtime struct {
	Ctx *rdd.Context
	Eng *exec.Engine
	Sch *dag.Scheduler
	Col *metrics.Collector
	Rec *core.Recorder
}

// NewRuntime builds a fresh stack (fresh cluster state: the paper clears
// caches between runs).
func NewRuntime(workload string, opt Options) *Runtime {
	opt = opt.withDefaults()
	ctx := rdd.NewContext(opt.DefaultParallelism)
	col := metrics.NewCollector(workload, opt.Mode)
	eng := exec.New(opt.Topo, opt.Params, ctx, col, opt.CoPartition)
	sch := dag.NewScheduler(ctx, eng)
	sch.Configurator = opt.Configurator
	rec := core.NewRecorder()
	sch.OnJob = rec.OnJob
	sch.OnPlan = opt.OnPlan
	lim := verify.DefaultLimits(opt.Topo)
	if opt.OnPlanViolations != nil {
		sch.Verify = verify.ObservingHook(lim, opt.OnPlanViolations)
	} else {
		sch.Verify = verify.Hook(lim)
	}
	return &Runtime{Ctx: ctx, Eng: eng, Sch: sch, Col: col, Rec: rec}
}

// RunWorkload executes w at inputBytes on a fresh runtime and returns the
// runtime (for metrics inspection) and the workload result.
func RunWorkload(w workloads.Workload, inputBytes int64, opt Options) (*Runtime, workloads.Result, error) {
	rt := NewRuntime(w.Name(), opt)
	res, err := w.Run(rt.Ctx, inputBytes)
	if err != nil {
		return nil, workloads.Result{}, fmt.Errorf("experiments: %s run: %w", w.Name(), err)
	}
	return rt, res, nil
}

// Table is a printable experiment artifact.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// f1, f2, fp format numbers for table cells.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func fpct(v float64) string {
	return fmt.Sprintf("%.1f%%", v)
}

// kb renders bytes as KB with one decimal.
func kb(b int64) string { return fmt.Sprintf("%.1f", float64(b)/1e3) }

// SeriesSet is a labeled collection of utilization series (Figs. 11-14).
type SeriesSet struct {
	Title  string
	Step   float64
	Labels []string
	Series []metrics.Series
}

// Table renders the series set as a timestamped table.
func (s SeriesSet) Table() Table {
	t := Table{Title: s.Title, Header: append([]string{"time(s)"}, s.Labels...)}
	maxLen := 0
	for _, sr := range s.Series {
		if len(sr.Values) > maxLen {
			maxLen = len(sr.Values)
		}
	}
	for i := 0; i < maxLen; i++ {
		row := []string{fmt.Sprintf("%.0f", float64(i)*s.Step)}
		for _, sr := range s.Series {
			if i < len(sr.Values) {
				row = append(row, f1(sr.Values[i]))
			} else {
				row = append(row, "")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
