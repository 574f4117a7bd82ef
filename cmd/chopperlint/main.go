// Command chopperlint is the repository's static-analysis driver: it loads
// the module once into a shared lint.Program and runs every rule family of
// internal/lint — determinism and correctness, lock contracts and the
// durability protocol, key flow, and hot-path allocation sites — in one
// pass over the non-test packages, exiting non-zero on any finding.
//
// Usage:
//
//	chopperlint [-json] [-rules=<comma-list>] [packages]
//	chopperlint -write-budget
//
// Packages default to ./... relative to the enclosing module root. Each
// rule scopes its diagnostics to the packages it governs (DESIGN.md §6).
// -rules restricts the run to a comma-separated subset of rule names
// (default: all). With -json the findings go to stdout as one array in the
// unified wire schema (tool/rule/pos/msg/severity) and the human-readable
// lines move to stderr. -write-budget regenerates heapbudget.json at the
// module root from a fresh sweep; run it after auditing a hot-path
// allocation change and commit the result. Exit status: 0 clean, 1
// findings, 2 load/parse or usage error (an unknown rule name is a usage
// error).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"chopper/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings on stdout in the unified wire-JSON schema (human lines go to stderr)")
	rules := flag.String("rules", "", "comma-separated rule names to run (default: all)")
	writeBudget := flag.Bool("write-budget", false, "regenerate heapbudget.json at the module root from a fresh sweep and exit")
	flag.Parse()
	if *writeBudget {
		os.Exit(runWriteBudget())
	}
	os.Exit(run(flag.Args(), *jsonOut, *rules))
}

// selectAnalyzers resolves the -rules flag value.
func selectAnalyzers(rules string) ([]*lint.Analyzer, error) {
	if rules == "" {
		return lint.All(), nil
	}
	var names []string
	for _, n := range strings.Split(rules, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-rules lists no rule names")
	}
	return lint.ByName(names)
}

// program loads the enclosing module into one shared Program: every
// package is parsed and type-checked at most once, and whole-program facts
// (lock order, guard contracts, heap reachability) are computed once and
// shared by every rule and file that consults them.
func program() (*lint.Program, string, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, "", err
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		return nil, "", err
	}
	prog, err := lint.NewProgram(root)
	if err != nil {
		return nil, "", err
	}
	return prog, root, nil
}

func run(patterns []string, jsonOut bool, rules string) int {
	analyzers, err := selectAnalyzers(rules)
	if err != nil {
		return fail(err)
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, root, err := program()
	if err != nil {
		return fail(err)
	}
	dirs, err := prog.Loader.Match(patterns)
	if err != nil {
		return fail(err)
	}
	if len(dirs) == 0 {
		return fail(fmt.Errorf("no packages match %v", patterns))
	}

	var diags []lint.Diagnostic
	for _, dir := range dirs {
		pkg, err := prog.Package(dir)
		if err != nil {
			return fail(err)
		}
		diags = append(diags, lint.Run(pkg, analyzers)...)
	}
	// Report module-relative paths: stable across machines and CI. Re-sort
	// afterwards — relativization changes the byte order of paths.
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].File); err == nil {
			diags[i].File = rel
		}
	}
	diags = lint.SortDiagnostics(diags)

	text := os.Stdout
	if jsonOut {
		text = os.Stderr
		if err := lint.WriteJSONTool(os.Stdout, "chopperlint", diags); err != nil {
			return fail(err)
		}
	}
	if err := lint.WriteText(text, diags); err != nil {
		return fail(err)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "chopperlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// runWriteBudget recomputes the hot-path allocation-site budget and
// commits it to heapbudget.json at the module root.
func runWriteBudget() int {
	prog, root, err := program()
	if err != nil {
		return fail(err)
	}
	data, err := lint.HeapBudgetJSON(prog)
	if err != nil {
		return fail(err)
	}
	path := filepath.Join(root, lint.HeapBudgetFile)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "chopperlint: wrote %s\n", path)
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "chopperlint:", err)
	return 2
}
