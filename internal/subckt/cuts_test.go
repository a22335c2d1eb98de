package subckt

import (
	"slices"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/gen"
	"compsynth/internal/logic"
)

func TestCutsOfC17(t *testing.T) {
	c, _ := bench.ParseString(bench.C17, "c17")
	db := ComputeCuts(c, 4, 64)
	// Every gate has at least its trivial cut and its fanin cut.
	for _, nd := range c.Nodes {
		if nd.Type != circuit.Nand {
			continue
		}
		cuts := db.Cuts(nd.ID)
		if len(cuts) < 2 {
			t.Fatalf("gate %s has %d cuts", nd.Name, len(cuts))
		}
		foundTrivial := false
		for _, cut := range cuts {
			if len(cut) == 1 && cut[0] == nd.ID {
				foundTrivial = true
			}
			if len(cut) > 4 {
				t.Fatalf("gate %s: cut %v exceeds K", nd.Name, cut)
			}
		}
		if !foundTrivial {
			t.Fatalf("gate %s missing trivial cut", nd.Name)
		}
	}
	// Output 22's cone has 5 inputs total: with K=5 the full-input cut
	// must appear.
	db5 := ComputeCuts(c, 5, 64)
	g := c.NodeByName("22")
	full := false
	for _, cut := range db5.Cuts(g) {
		allPI := len(cut) > 0
		for _, id := range cut {
			if c.Nodes[id].Type != circuit.Input {
				allPI = false
			}
		}
		if allPI {
			full = true
		}
	}
	if !full {
		t.Fatal("PI-level cut of output 22 not enumerated")
	}
}

func TestCutsAreRealCuts(t *testing.T) {
	// Every enumerated cut must induce a valid subcircuit whose extracted
	// function matches direct cofactor evaluation.
	c, _ := bench.ParseString(bench.C17, "c17")
	db := ComputeCuts(c, 5, 64)
	for _, nd := range c.Nodes {
		if nd.Type != circuit.Nand {
			continue
		}
		for _, cut := range db.Cuts(nd.ID) {
			if len(cut) == 1 && cut[0] == nd.ID {
				continue
			}
			s := SubcircuitFor(c, nd.ID, cut)
			if s == nil {
				t.Fatalf("gate %s: cut %v does not induce a subcircuit", nd.Name, cut)
			}
			tt := s.Extract(c)
			if tt.Vars() != len(s.Inputs) {
				t.Fatal("arity mismatch")
			}
		}
	}
}

func TestCutsThroughWideGates(t *testing.T) {
	// The regression that motivated cut enumeration: a 6-input OR of
	// 6 AND4 products over only 4 distinct inputs. Incremental growth is
	// stuck (the trivial subcircuit has 6 inputs); cuts reach the 4 PIs.
	f := logic.FromMinterms(4, []int{1, 5, 6, 9, 10, 14})
	c := circuit.New("sop")
	var ins []int
	for i := 0; i < 4; i++ {
		ins = append(ins, c.AddInput(string(rune('a'+i))))
	}
	var invs []int
	for _, in := range ins {
		invs = append(invs, c.AddGate(circuit.Not, "", in))
	}
	var prods []int
	for _, m := range f.Onset() {
		fan := make([]int, 4)
		for i := 0; i < 4; i++ {
			if m&(1<<(3-i)) != 0 {
				fan[i] = ins[i]
			} else {
				fan[i] = invs[i]
			}
		}
		prods = append(prods, c.AddGate(circuit.And, "", fan...))
	}
	out := c.AddGate(circuit.Or, "", prods...)
	c.MarkOutput(out)

	db := ComputeCuts(c, 4, 128)
	subs := db.EnumerateFromCuts(c, out)
	foundFull := false
	for _, s := range subs {
		if len(s.Inputs) == 4 {
			tt := s.Extract(c)
			if tt.Equal(f) {
				foundFull = true
			}
		}
	}
	if !foundFull {
		t.Fatal("cut enumeration did not reach the 4-PI cut of the SOP cone")
	}
}

func TestCutsOnRandomCircuits(t *testing.T) {
	for _, b := range gen.SmallSuite()[:2] {
		c := b.Build()
		db := ComputeCuts(c, 5, 32)
		for _, nd := range c.Nodes {
			if nd == nil || !c.Alive(nd.ID) || nd.Type == circuit.Input {
				continue
			}
			for _, cut := range db.Cuts(nd.ID) {
				if len(cut) > 5 {
					t.Fatalf("%s: oversized cut", b.Name)
				}
				if len(cut) == 1 && cut[0] == nd.ID {
					continue
				}
				if s := SubcircuitFor(c, nd.ID, cut); s == nil {
					t.Fatalf("%s: invalid cut %v for node %d", b.Name, cut, nd.ID)
				}
			}
		}
	}
}

func TestSubcircuitForRejectsBadCuts(t *testing.T) {
	c, _ := bench.ParseString(bench.C17, "c17")
	g := c.NodeByName("22")
	// A cut that does not cover all paths (missing one branch) is invalid.
	if s := SubcircuitFor(c, g, []int{c.NodeByName("10")}); s != nil {
		t.Fatal("partial cut accepted")
	}
	// Trivial self-cut rejected.
	if s := SubcircuitFor(c, g, []int{g}); s != nil {
		t.Fatal("self cut accepted")
	}
}

// TestUnionSorted covers merging, the empty union (non-nil: a constant's
// cut) and rejection of unions wider than k, found while merging or only
// once the tails are counted. A rejected union must not allocate.
func TestUnionSorted(t *testing.T) {
	cases := []struct {
		a, b []int
		k    int
		want []int // nil: the union has more than k lines
	}{
		{[]int{}, []int{}, 0, []int{}},
		{[]int{1, 3}, []int{}, 2, []int{1, 3}},
		{[]int{}, []int{2, 4}, 2, []int{2, 4}},
		{[]int{1, 3, 5}, []int{2, 3, 6}, 5, []int{1, 2, 3, 5, 6}},
		{[]int{1, 2, 3}, []int{1, 2, 3}, 3, []int{1, 2, 3}},
		{[]int{5}, []int{1, 2, 3, 4}, 5, []int{1, 2, 3, 4, 5}},
		{[]int{1, 2, 3}, []int{4, 5, 6}, 5, nil},
		{[]int{1, 3}, []int{2, 4}, 3, nil},
		{[]int{1, 2}, []int{3, 4, 5}, 4, nil},
		{[]int{1, 2, 3, 4, 5, 6}, []int{}, 5, nil},
	}
	for i, tc := range cases {
		got := unionSorted(tc.a, tc.b, tc.k)
		if (got == nil) != (tc.want == nil) || len(got) != len(tc.want) {
			t.Fatalf("case %d: unionSorted(%v, %v, %d) = %#v, want %#v", i, tc.a, tc.b, tc.k, got, tc.want)
		}
		for j := range got {
			if got[j] != tc.want[j] {
				t.Fatalf("case %d: unionSorted(%v, %v, %d) = %v, want %v", i, tc.a, tc.b, tc.k, got, tc.want)
			}
		}
	}
	a, b := []int{1, 3, 5}, []int{2, 4, 6}
	if n := testing.AllocsPerRun(100, func() { unionSorted(a, b, 5) }); n != 0 {
		t.Fatalf("rejected union allocates %v times", n)
	}
}

// TestDedupeCuts: repeats go, and the kept cuts stay in first-occurrence
// order, which decides what the merge cap keeps.
func TestDedupeCuts(t *testing.T) {
	in := [][]int{{3}, {1, 2}, {}, {3}, {1, 2, 5}, {1, 2}, {}, {2, 1 << 30}, {2, 1 << 30}}
	want := [][]int{{3}, {1, 2}, {}, {1, 2, 5}, {2, 1 << 30}}
	got := dedupeCuts(in)
	if len(got) != len(want) {
		t.Fatalf("dedupeCuts = %v, want %v", got, want)
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("dedupeCuts = %v, want %v", got, want)
		}
	}
}
