package lint_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"chopper/internal/lint"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenCases pair each analyzer with its fixture directory and the import
// path the fixtures pretend to live at (the path-scoped rules only fire
// inside their package lists).
var goldenCases = []struct {
	analyzer *lint.Analyzer
	dir      string
	path     string
}{
	{lint.WallTime, "walltime", "chopper/internal/dag"},
	{lint.GlobalRand, "globalrand", "chopper/internal/workloads"},
	{lint.MapOrder, "maporder", "chopper/internal/core"},
	{lint.DroppedErr, "droppederr", "chopper/internal/exec"},
	{lint.ClosureCapture, "closurecapture", "chopper/internal/workloads"},
	{lint.SharedEscape, "sharedescape", "chopper/internal/exec"},
	{lint.LockOrder, "lockorder", "chopper/internal/exec"},
	{lint.NilFlow, "nilflow", "chopper/internal/dag"},
	{lint.CtxLeak, "ctxleak", "chopper/internal/exec"},
	{lint.LockContract, "lockcontract", "chopper/internal/core"},
	{lint.CopyEscape, "copyescape", "chopper/internal/core"},
	{lint.JournalOrder, "journalorder", "chopper/internal/core"},
	{lint.Tocou, "tocou", "chopper/internal/core"},
	{lint.KeyDriftRule, "keydrift", "chopper/internal/workloads"},
	{lint.ShuffleWaste, "shufflewaste", "chopper/internal/workloads"},
	{lint.ConstKey, "constkey", "chopper/internal/workloads"},
	{lint.HotAlloc, "hotalloc", "chopper/internal/exec"},
	{lint.BoxF64, "boxf64", "chopper/internal/rdd"},
	{lint.GenLife, "genlife", "chopper/internal/shuffle"},
	{lint.PreAlloc, "prealloc", "chopper/internal/exec"},
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestGolden checks each analyzer against its fixture package: hits fire,
// suppressed hits stay silent, clean files report nothing.
func TestGolden(t *testing.T) {
	// One loader for every fixture: fixture packages are not cached under
	// their pretend import paths, only their (real) imports are, so the
	// standard library is type-checked once instead of once per rule.
	ld, err := lint.NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range goldenCases {
		t.Run(tc.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.dir)
			pkg, err := ld.LoadDir(dir, tc.path)
			if err != nil {
				t.Fatal(err)
			}
			diags := lint.Run(pkg, []*lint.Analyzer{tc.analyzer})
			for i := range diags {
				diags[i].File = filepath.Base(diags[i].File)
			}
			var b strings.Builder
			if err := lint.WriteText(&b, diags); err != nil {
				t.Fatal(err)
			}
			got := b.String()

			golden := filepath.Join(dir, "expected.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// plantModule writes a throwaway module with one file at the given package
// path and returns the analyzer findings for it.
func plantModule(t *testing.T, relDir, src string, analyzers []*lint.Analyzer) []lint.Diagnostic {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module chopper\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, relDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "planted.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	ld, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := ld.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return lint.Run(pkg, analyzers)
}

// TestPlantedViolations is the acceptance check from the issue: a planted
// time.Now in internal/dag and a bare rand.Intn in internal/core must be
// reported with file:line positions.
func TestPlantedViolations(t *testing.T) {
	t.Run("walltime-in-dag", func(t *testing.T) {
		diags := plantModule(t, "internal/dag", `package dag

import "time"

func Bad() time.Time { return time.Now() }
`, []*lint.Analyzer{lint.WallTime})
		if len(diags) != 1 {
			t.Fatalf("want 1 walltime finding, got %v", diags)
		}
		d := diags[0]
		if d.Rule != "walltime" || d.Line != 5 || !strings.HasSuffix(d.File, "planted.go") {
			t.Fatalf("unexpected diagnostic: %+v", d)
		}
	})
	t.Run("globalrand-in-core", func(t *testing.T) {
		diags := plantModule(t, "internal/core", `package core

import "math/rand"

func Bad() int { return rand.Intn(7) }
`, []*lint.Analyzer{lint.GlobalRand})
		if len(diags) != 1 {
			t.Fatalf("want 1 globalrand finding, got %v", diags)
		}
		if d := diags[0]; d.Rule != "globalrand" || d.Line != 5 {
			t.Fatalf("unexpected diagnostic: %+v", d)
		}
	})
	t.Run("walltime-scope", func(t *testing.T) {
		// The same wall-clock read outside the simulation packages is legal.
		diags := plantModule(t, "internal/trace", `package trace

import "time"

func OK() time.Time { return time.Now() }
`, []*lint.Analyzer{lint.WallTime})
		if len(diags) != 0 {
			t.Fatalf("walltime must not apply outside simulation packages, got %v", diags)
		}
	})
}

var (
	repoOnce sync.Once
	repoProg *lint.Program
	repoErr  error
)

// repoProgram returns the module loaded into one lint.Program shared by
// every whole-tree test of this binary, so the module is parsed and
// type-checked once and each whole-program fact is computed once.
func repoProgram(t *testing.T) *lint.Program {
	t.Helper()
	repoOnce.Do(func() {
		var root string
		if root, repoErr = lint.FindModuleRoot("."); repoErr == nil {
			repoProg, repoErr = lint.NewProgram(root)
		}
	})
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repoProg
}

// sweep runs the analyzers over every package of prog's module, as
// chopperlint does, and returns the sorted, deduplicated findings.
func sweep(prog *lint.Program, analyzers []*lint.Analyzer) ([]lint.Diagnostic, error) {
	dirs, err := prog.Loader.Match([]string{"./..."})
	if err != nil {
		return nil, err
	}
	var diags []lint.Diagnostic
	for _, dir := range dirs {
		pkg, err := prog.Package(dir)
		if err != nil {
			return nil, err
		}
		diags = append(diags, lint.Run(pkg, analyzers)...)
	}
	return lint.SortDiagnostics(diags), nil
}

// text renders findings one per line in compiler format.
func text(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String() + "\n")
	}
	return b.String()
}

// TestRepoIsClean runs every rule family over the real tree in one pass,
// exactly as chopperlint does: the gate CI enforces, kept as a test so
// `go test ./...` alone catches regressions.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	prog := repoProgram(t)
	dirs, err := prog.Loader.Match([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("suspiciously few packages matched: %v", dirs)
	}
	// The analyzers and the symbolic extractor hold themselves to their
	// own rules: narrowing the sweep must never silently exempt them.
	matched := map[string]bool{}
	for _, dir := range dirs {
		if rel, err := filepath.Rel(prog.Loader.ModRoot, dir); err == nil {
			matched[filepath.ToSlash(rel)] = true
		}
	}
	for _, want := range []string{"internal/lint", "internal/lint/ssa", "internal/plan/extract"} {
		if !matched[want] {
			t.Errorf("sweep does not cover %s; matched %v", want, dirs)
		}
	}
	diags, err := sweep(prog, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// onePassFixture plants one violation per rule family in a throwaway
// module, plus a reasonless and a stale //lint:ignore. Keyed by the
// package directory relative to the module root.
var onePassFixture = map[string]string{
	"internal/dag": `package dag

import "time"

func Bad() time.Time {
	//lint:ignore walltime
	return time.Now()
}
`,
	"internal/core": `package core

import "sync"

type miniDB struct {
	mu    sync.RWMutex
	items map[string]int
}

func (d *miniDB) Put(k string, v int) {
	d.mu.Lock()
	d.items[k] = v
	d.mu.Unlock()
}

func (d *miniDB) Peek(k string) int {
	return d.items[k]
}

//lint:ignore tocou the check below used to race before the rewrite
func Fine() int { return 1 }
`,
	"internal/rdd": rddStub,
	"internal/workloads": `package workloads

import "chopper/internal/rdd"

func PlantedGlobalSum(ctx *rdd.Context) *rdd.RDD {
	rows := ctx.Generate("rows", 0, 1024, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: 0, V: 1.0}}
	})
	return rows.ReduceByKey(func(a, b any) any { return a }, 8)
}
`,
	"internal/exec": heapGateSrc,
}

// TestOnePassMatchesFamilyUnion pins the single-pass driver: running All()
// once over a module reports exactly the sorted, deduplicated union of the
// four per-family runs, suppression-audit findings included (the
// reasonless directive is audited by every family run but reported once).
func TestOnePassMatchesFamilyUnion(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module chopper\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for rel, src := range onePassFixture {
		dir := filepath.Join(root, rel)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "planted.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Every sweep gets a fresh Program, so no run reuses another's facts.
	run := func(analyzers []*lint.Analyzer) []lint.Diagnostic {
		prog, err := lint.NewProgram(root)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := sweep(prog, analyzers)
		if err != nil {
			t.Fatal(err)
		}
		return diags
	}

	inFamily := map[string]bool{}
	families := [][]*lint.Analyzer{lint.Guard(), lint.Key(), lint.Heap()}
	for _, fam := range families {
		for _, a := range fam {
			inFamily[a.Name] = true
		}
	}
	var base []*lint.Analyzer
	for _, a := range lint.All() {
		if !inFamily[a.Name] {
			base = append(base, a)
		}
	}
	if len(base)+len(inFamily) != len(lint.All()) {
		t.Fatalf("All() repeats a family rule: %d base + %d family rules, %d in All()", len(base), len(inFamily), len(lint.All()))
	}
	var union []lint.Diagnostic
	for _, fam := range append(families, base) {
		union = append(union, run(fam)...)
	}
	union = lint.SortDiagnostics(union)

	render := func(diags []lint.Diagnostic) string {
		return filepath.ToSlash(strings.ReplaceAll(text(diags), root+string(filepath.Separator), ""))
	}
	got, want := render(run(lint.All())), render(union)
	if got != want {
		t.Fatalf("one pass diverges from the per-family union\n--- one pass ---\n%s--- union ---\n%s", got, want)
	}
	for _, frag := range []string{
		"internal/dag/planted.go:7:9: walltime:",
		"internal/dag/planted.go:6:2: suppression: lint:ignore walltime has no reason",
		"internal/core/planted.go:17:11: lockcontract:",
		"internal/core/planted.go:20:1: suppression: lint:ignore tocou suppresses no finding",
		"internal/workloads/planted.go:9:9: constkey:",
		"internal/exec/planted.go:5:18: hotalloc:",
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("one-pass output lacks %q:\n%s", frag, got)
		}
	}
	if n := strings.Count(got, "has no reason"); n != 1 {
		t.Errorf("reasonless directive reported %d times, want once:\n%s", n, got)
	}
}
