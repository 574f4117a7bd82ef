package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, prog []metricDef, names, units []string) {
		if len(prog) != len(names) {
			t.Fatalf("%s: program reports %d metrics, BENCHMARK.json lists %d", kind, len(prog), len(names))
		}
		for i, d := range prog {
			if d.Name != names[i] || d.Unit != units[i] {
				t.Errorf("%s[%d]: program %s/%s, BENCHMARK.json %s/%s", kind, i, d.Name, d.Unit, names[i], units[i])
			}
		}
	}
	var n, u []string
	for _, m := range bf.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name != "setup_s" && m.Bound > bf.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v above setup_s's", m.Name, m.Bound)
		}
	}
	same("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range bf.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	same("per_layer", perLayer, n, u)

	var wl []string
	for _, w := range bf.Workloads {
		wl = append(wl, w.Name)
	}
	if strings.Join(wl, ",") != "tune,mixed" {
		t.Errorf("workloads %v", wl)
	}
}

func TestMetricNamesAreValidAndUnique(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("invalid metric %q unit %q", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("duplicate metric %q", d.Name)
		}
		seen[d.Name] = true
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" {
		t.Error("setup_s must be an end-to-end metric in seconds")
	}
}

func TestResultLineCarriesExactlyTheMetricSet(t *testing.T) {
	rep := newReport()
	if _, err := rep.resultLine(false); err == nil {
		t.Fatal("a result without its end-to-end metrics must be an error")
	}
	for _, d := range endToEnd {
		rep.e2e.set(d.Name, 1.5)
	}
	rep.attempted = 3
	line, err := rep.resultLine(false)
	if err != nil {
		t.Fatal(err)
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys: %s", line)
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil || len(metrics) != len(endToEnd) {
		t.Fatalf("metrics: %v %s", err, res["metrics"])
	}
	rep.check(false, "planted failure")
	if line, _ := rep.resultLine(true); !strings.HasPrefix(line, `{"correct":false`) {
		t.Errorf("a failed check must mark the run incorrect: %s", line)
	}
}
