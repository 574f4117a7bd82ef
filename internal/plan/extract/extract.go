// Package extract reconstructs a workload's RDD lineage and stage graphs
// statically: a symbolic evaluator interprets the workload's Run method
// (go/ast + go/types, loaded through the shared lint.Program cache) and
// replays every transformation against the real rdd API on a runner-less
// context. Closures are stubbed (transforms are lazy, so their bodies never
// execute), actions are intercepted instead of run, and loop bounds come
// from the live workload struct via reflection — so the extracted lineage
// allocates RDD IDs in exactly the program order the runtime would, and
// dag.BuildPlan over it yields stage graphs isomorphic to the ones the
// scheduler builds at run time.
//
// The point of the exercise is the drift gate (cmd/chopperverify): the
// statically extracted plans are checked against internal/plan/verify's
// invariants AND diffed against the plans a real run submits. A divergence
// ("plan drift") means the workload's control flow has grown beyond what
// the evaluator models — or that a code change silently altered the stage
// structure the paper's figures are keyed to — and fails CI either way.
package extract

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"reflect"

	"chopper/internal/dag"
	"chopper/internal/lint"
	"chopper/internal/plan/verify"
	"chopper/internal/rdd"
	"chopper/internal/workloads"
)

// Job is one action the symbolic evaluation reached: the action's method
// name, the lineage it would submit, and the stage plan dag.BuildPlan
// derives from that lineage (cold cache — structure is cache-independent,
// only signatures vary with warmth).
type Job struct {
	Action string
	Target *rdd.RDD
	Plan   *dag.Stage
	Topo   []*dag.Stage

	// Keys holds the statically inferred key/partitioning facts for every
	// lineage node of Target, sorted by RDD ID (creation order).
	Keys []KeyFacts
}

// Report is the result of symbolically extracting one workload.
type Report struct {
	Workload string
	Jobs     []Job
}

// Verify runs the plan-IR invariant checks over every extracted job's
// stage graph and returns the combined findings.
func (r *Report) Verify(lim verify.Limits) []verify.Violation {
	var out []verify.Violation
	for i, j := range r.Jobs {
		for _, v := range verify.Stages(j.Plan, j.Topo, lim) {
			v.Check = fmt.Sprintf("job%d/%s: %s", i, j.Action, v.Check)
			out = append(out, v)
		}
	}
	return out
}

// Extractor holds the parsed+type-checked workloads package.
type Extractor struct {
	pkg *lint.Package
}

// New loads the workloads package from the module containing dir.
func New(dir string) (*Extractor, error) {
	root, err := lint.FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	prog, err := lint.NewProgram(root)
	if err != nil {
		return nil, err
	}
	return NewFromProgram(prog)
}

// NewFromProgram builds an extractor on an existing shared Program, so
// tools that also run chopperlint rules type-check the package only once.
func NewFromProgram(prog *lint.Program) (*Extractor, error) {
	dir := filepath.Join(prog.Loader.ModRoot, "internal", "workloads")
	pkg, err := prog.Package(dir)
	if err != nil {
		return nil, fmt.Errorf("extract: loading workloads package: %w", err)
	}
	return &Extractor{pkg: pkg}, nil
}

// Extract symbolically evaluates w's Run method at the given logical input
// size and default parallelism. The workload value itself supplies every
// receiver field the evaluator reads (loop bounds, dataset shapes), so a
// shrunk instance extracts the plans of the shrunk run.
func (e *Extractor) Extract(w workloads.Workload, inputBytes int64, defaultParallelism int) (rep *Report, err error) {
	decl, err := e.runDecl(w)
	if err != nil {
		return nil, err
	}
	defer func() {
		// The evaluator deliberately panics on constructs it cannot model
		// (and the real rdd API panics on degenerate partition counts);
		// both become ordinary "unextractable" errors.
		if r := recover(); r != nil {
			rep = nil
			err = fmt.Errorf("extract: %s: %v", w.Name(), r)
		}
	}()

	ctx := rdd.NewContext(defaultParallelism)
	in := newInterp(e.pkg, decl, w, ctx, inputBytes)
	in.run()

	rep = &Report{Workload: w.Name()}
	cold := func(*rdd.RDD) bool { return false }
	for _, j := range in.jobs {
		rdd.PropagateCounts(j.target)
		plan, topo := dag.BuildPlan(j.target, cold)
		keys, err := in.keys.jobFacts(j.target)
		if err != nil {
			return nil, fmt.Errorf("extract: %s: %w", w.Name(), err)
		}
		rep.Jobs = append(rep.Jobs, Job{Action: j.action, Target: j.target, Plan: plan, Topo: topo, Keys: keys})
	}
	return rep, nil
}

// runDecl finds the Run method declaration for w's dynamic type.
func (e *Extractor) runDecl(w workloads.Workload) (*ast.FuncDecl, error) {
	t := reflect.TypeOf(w)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	want := t.Name()
	for _, f := range e.pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Run" || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			if recvTypeName(fd.Recv.List[0].Type) == want {
				return fd, nil
			}
		}
	}
	return nil, fmt.Errorf("extract: no Run method found for workload type %s", want)
}

// recvTypeName unwraps a receiver type expression to its base identifier.
func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}
