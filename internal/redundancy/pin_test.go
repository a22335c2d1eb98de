package redundancy

import (
	"testing"

	"compsynth/internal/gen"
	"compsynth/internal/metric"
)

// TestRemoveCountersPinned pins, exactly, the PODEM work and the outcome of
// Remove(DefaultOptions()) on two suite circuits at the -quick scale. The
// constants were recorded with the whole-cone PODEM engine; a faster
// engine must make exactly the same calls, backtracks, aborts and
// redundancy proofs, and so leave exactly the same circuit behind.
func TestRemoveCountersPinned(t *testing.T) {
	type counts struct {
		calls, backtracks, aborts, proofs int64
		removed, aborted, gatesAfter      int
	}
	want := map[string]counts{
		"rs5378": {calls: 93, backtracks: 1821, aborts: 0, proofs: 80, removed: 80, aborted: 0, gatesAfter: 109},
		"rs9234": {calls: 227, backtracks: 156612, aborts: 0, proofs: 192, removed: 192, aborted: 0, gatesAfter: 168},
	}
	ctrs := []*metric.Counter{
		metric.C("atpg.calls"), metric.C("atpg.backtracks"),
		metric.C("atpg.aborts"), metric.C("atpg.redundant_proofs"),
	}
	for _, b := range gen.Suite(0.15) {
		w, ok := want[b.Name]
		if !ok {
			continue
		}
		before := make([]int64, len(ctrs))
		for i, c := range ctrs {
			before[i] = c.Value()
		}
		res, err := Remove(b.Build(), DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		got := counts{removed: res.Removed, aborted: res.Aborted, gatesAfter: res.GatesAfter}
		for i, p := range []*int64{&got.calls, &got.backtracks, &got.aborts, &got.proofs} {
			*p = ctrs[i].Value() - before[i]
		}
		if got != w {
			t.Errorf("%s: got %+v, want %+v", b.Name, got, w)
		}
		delete(want, b.Name)
	}
	if len(want) != 0 {
		t.Fatalf("suite circuits not found: %v", want)
	}
}
