package resynth

import (
	"testing"

	"compsynth/internal/gen"
)

// TestOptimizeRawRS35932 runs Procedure 3 at K=5 with per-pass
// verification on the raw generator rs35932. A per-pass truth-table memo
// keyed by the gate set once returned a table whose inputs had since been
// rewired by an accepted replacement, and pass 1 failed with "broke
// equivalence".
func TestOptimizeRawRS35932(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale circuit in -short mode")
	}
	var found bool
	for _, b := range gen.Suite(0.15) {
		if b.Name != "rs35932" {
			continue
		}
		found = true
		opt := DefaultOptions()
		opt.K = 5
		opt.Objective = MinPaths
		opt.Verify = true
		if _, err := Optimize(b.Build(), opt); err != nil {
			t.Fatal(err)
		}
	}
	if !found {
		t.Fatal("rs35932 missing from gen.Suite")
	}
}
