package core

import (
	"testing"

	"chopper/internal/dag"
	"chopper/internal/metrics"
)

// TestObservationsDeepCopiesParentSigs pins the copy-on-read contract that
// the copyescape lint rule enforces: the observations handed out by
// the recorder must not share backing arrays with its guarded map — a
// caller mutating a returned ParentSigs slice must not corrupt what the
// next caller sees.
func TestObservationsDeepCopiesParentSigs(t *testing.T) {
	r := NewRecorder()
	r.OnJob([]dag.StageInfo{{ID: 1, Signature: "s1", Name: "stage", ParentSigs: []string{"p0", "p1"}}})

	col := metrics.NewCollector("w", "test")
	col.BeginStage(1, "s1", "stage", "hash", 4, 0)
	col.EndStage(1, 1)

	obs := r.Observations(col, true)
	if len(obs) != 1 || len(obs[0].ParentSigs) != 2 {
		t.Fatalf("unexpected observations: %+v", obs)
	}
	obs[0].ParentSigs[0] = "mutated"

	again := r.Observations(col, true)
	if got := again[0].ParentSigs[0]; got != "p0" {
		t.Fatalf("recorder state was mutated through a returned slice: ParentSigs[0] = %q, want %q", got, "p0")
	}
}
