package compare

import (
	"math/rand"
	"reflect"
	"testing"

	"compsynth/internal/logic"
)

// The original per-position definitions, kept as the reference for the
// linear-time costs: each call recomputes FreeCount, so a loop over all
// positions is quadratic.

func refInGeq(s Spec, i int) bool {
	return i > s.FreeCount() && s.suffix(s.L, i) != 0
}

func refInLeq(s Spec, i int) bool {
	return i > s.FreeCount() && s.suffix(s.U, i) != (1<<(s.N-i+1))-1
}

func refKp(s Spec, i int) int {
	if i <= s.FreeCount() {
		return 1
	}
	k := 0
	if refInGeq(s, i) {
		k++
	}
	if refInLeq(s, i) {
		k++
	}
	return k
}

func refGateCost(s Spec) int {
	f := s.FreeCount()
	cost, terms := 0, f
	tGeq, tLeq := 0, 0
	for i := f + 1; i <= s.N; i++ {
		if refInGeq(s, i) {
			tGeq++
		}
		if refInLeq(s, i) {
			tLeq++
		}
	}
	if tGeq > 0 {
		cost += tGeq - 1
		terms++
	}
	if tLeq > 0 {
		cost += tLeq - 1
		terms++
	}
	if terms > 1 {
		cost += terms - 1
	}
	return cost
}

func refPathCost(s Spec, np []uint64) uint64 {
	var total uint64
	for i := 1; i <= s.N; i++ {
		total += np[s.Perm[i-1]] * uint64(refKp(s, i))
	}
	return total
}

// refIdentifyAll is the original IdentifyAll, deduplicating on the printed
// spec.
func refIdentifyAll(f logic.TT, limit int) []Spec {
	var specs []Spec
	seen := map[string]bool{}
	add := func(s Spec) bool {
		k := s.String()
		if !seen[k] {
			seen[k] = true
			specs = append(specs, s)
		}
		return len(specs) < limit
	}
	enumerate(f, false, add)
	if len(specs) < limit && !f.IsConst(false) && !f.IsConst(true) {
		enumerateNot(f, add)
	}
	return specs
}

// allFunctions calls fn on every function of at most four variables.
func allFunctions(fn func(f logic.TT)) {
	for n := 0; n <= 4; n++ {
		for bits := 0; bits < 1<<(1<<n); bits++ {
			f := logic.New(n)
			for m := 0; m < 1<<n; m++ {
				f.Set(m, bits>>m&1 == 1)
			}
			fn(f)
		}
	}
}

// TestSpecCostsMatchRef: on every spec IdentifyAll emits for every function
// of at most four variables, GateCost, PathCost, InGeq, InLeq and Kp equal
// the original definitions.
func TestSpecCostsMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specs := 0
	allFunctions(func(f logic.TT) {
		for _, s := range IdentifyAll(f, 1<<20) {
			specs++
			if got, want := s.GateCost(), refGateCost(s); got != want {
				t.Fatalf("%s: GateCost %d, reference %d", s, got, want)
			}
			np := make([]uint64, s.N)
			for j := range np {
				np[j] = uint64(rng.Intn(1000))
			}
			if got, want := s.PathCost(np), refPathCost(s, np); got != want {
				t.Fatalf("%s np=%v: PathCost %d, reference %d", s, np, got, want)
			}
			for i := 1; i <= s.N; i++ {
				if s.InGeq(i) != refInGeq(s, i) || s.InLeq(i) != refInLeq(s, i) || s.Kp(i) != refKp(s, i) {
					t.Fatalf("%s: position %d differs from the reference", s, i)
				}
			}
		}
	})
	if specs == 0 {
		t.Fatal("no specs")
	}
}

// TestIdentifyAllMatchesRef: deduplicating on the comparable key keeps
// exactly the specs, in the order, that deduplicating on the printed spec
// kept, with and without a limit.
func TestIdentifyAllMatchesRef(t *testing.T) {
	allFunctions(func(f logic.TT) {
		for _, limit := range []int{3, 8, 1 << 20} {
			if got, want := IdentifyAll(f, limit), refIdentifyAll(f, limit); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s limit %d: IdentifyAll %v, reference %v", f, limit, got, want)
			}
		}
	})
}
