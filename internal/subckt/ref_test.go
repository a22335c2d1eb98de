package subckt

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"compsynth/internal/circuit"
	"compsynth/internal/gen"
	"compsynth/internal/logic"
)

// refSub is a candidate as the original map-based construction built it:
// the gate set as a map and the inputs sorted.
type refSub struct {
	Out    int
	Gates  map[int]bool
	Inputs []int
}

// refSubcircuitFor is the original SubcircuitFor, kept as the reference for
// the map-free walk: a map-marked DFS below g that stops at cut lines,
// followed by the original newSub (constant absorption, map input set).
func refSubcircuitFor(c *circuit.Circuit, g int, cut []int) *refSub {
	if !c.Alive(g) {
		return nil
	}
	inCut := map[int]bool{}
	for _, id := range cut {
		if !c.Alive(id) {
			return nil
		}
		inCut[id] = true
	}
	if inCut[g] {
		return nil
	}
	gates := map[int]bool{}
	var walk func(id int) bool
	walk = func(id int) bool {
		if inCut[id] {
			return true
		}
		if gates[id] {
			return true
		}
		nd := c.Nodes[id]
		if nd.Type == circuit.Input {
			return false
		}
		gates[id] = true
		for _, f := range nd.Fanin {
			if !walk(f) {
				return false
			}
		}
		return true
	}
	if !walk(g) {
		return nil
	}
	return refNewSub(c, g, gates)
}

func refNewSub(c *circuit.Circuit, g int, gates map[int]bool) *refSub {
	inSet := map[int]bool{}
	for id := range gates {
		for _, f := range c.Nodes[id].Fanin {
			if gates[f] {
				continue
			}
			t := c.Nodes[f].Type
			if t == circuit.Const0 || t == circuit.Const1 {
				gates[f] = true
				continue
			}
			inSet[f] = true
		}
	}
	inputs := make([]int, 0, len(inSet))
	for id := range inSet {
		inputs = append(inputs, id)
	}
	sort.Ints(inputs)
	return &refSub{Out: g, Gates: gates, Inputs: inputs}
}

// refTopo is the original topoInto: a second DFS from Out over the gate
// map, then any gate not reached from Out.
func (s *refSub) refTopo(c *circuit.Circuit) []int {
	var order []int
	done := map[int]bool{}
	var visit func(id int)
	visit = func(id int) {
		if !s.Gates[id] || done[id] {
			return
		}
		done[id] = true
		for _, f := range c.Nodes[id].Fanin {
			visit(f)
		}
		order = append(order, id)
	}
	visit(s.Out)
	for id := range s.Gates {
		visit(id)
	}
	return order
}

// refExtract evaluates the candidate over refTopo's order with a map of
// per-node words.
func (s *refSub) refExtract(c *circuit.Circuit) logic.TT {
	n := len(s.Inputs)
	tt := logic.New(n)
	order := s.refTopo(c)
	words := tt.Words()
	for w := range words {
		vals := map[int]uint64{}
		for j, in := range s.Inputs {
			vals[in] = logic.Var(n, j+1).Words()[w]
		}
		for _, id := range order {
			nd := c.Nodes[id]
			var in []uint64
			for _, f := range nd.Fanin {
				in = append(in, vals[f])
			}
			vals[id] = nd.Type.EvalWords(in)
		}
		words[w] = vals[s.Out]
	}
	if n < 6 {
		words[0] &= (uint64(1) << (1 << n)) - 1
	}
	return tt
}

// checkTopological fails unless gates lists every gate after its fanins
// inside the set, with out last.
func checkTopological(t *testing.T, c *circuit.Circuit, out int, gates []int) {
	t.Helper()
	if len(gates) == 0 || gates[len(gates)-1] != out {
		t.Fatalf("out=%d: gates %v do not end with Out", out, gates)
	}
	for i, id := range gates {
		for _, f := range c.Nodes[id].Fanin {
			if j := slices.Index(gates, f); j >= i {
				t.Fatalf("out=%d: gate %d at %d precedes its fanin %d at %d in %v", out, id, i, f, j, gates)
			}
		}
	}
}

// TestSubcircuitForMatchesRef: on every cut of three suite circuits at K=5
// and 6, the map-free walk yields the reference's gate set and inputs,
// stores the gates in topological order with Out last, and extracts the
// reference's table and gate savings.
func TestSubcircuitForMatchesRef(t *testing.T) {
	want := map[string]bool{"rs5378": true, "rs9234": true, "rs35932": true}
	for _, bm := range gen.Suite(0.15) {
		if !want[bm.Name] {
			continue
		}
		delete(want, bm.Name)
		name, c := bm.Name, bm.Build()
		for _, k := range []int{5, 6} {
			db := ComputeCuts(c, k, 0)
			n := 0
			for _, g := range c.Topo() {
				for _, cut := range db.Cuts(g) {
					got, ref := SubcircuitFor(c, g, cut), refSubcircuitFor(c, g, cut)
					if (got == nil) != (ref == nil) {
						t.Fatalf("%s K=%d g=%d cut %v: got %v, reference %v", name, k, g, cut, got, ref)
					}
					if got == nil {
						continue
					}
					n++
					set := map[int]bool{}
					for _, id := range got.Gates {
						set[id] = true
					}
					if len(set) != len(got.Gates) || len(set) != len(ref.Gates) {
						t.Fatalf("%s K=%d g=%d: gates %v, reference %v", name, k, g, got.Gates, ref.Gates)
					}
					for id := range ref.Gates {
						if !set[id] {
							t.Fatalf("%s K=%d g=%d: gates %v miss %d", name, k, g, got.Gates, id)
						}
					}
					if !slices.Equal(got.Inputs, ref.Inputs) {
						t.Fatalf("%s K=%d g=%d: inputs %v, reference %v", name, k, g, got.Inputs, ref.Inputs)
					}
					checkTopological(t, c, g, got.Gates)
					if len(got.Inputs) == 0 {
						continue // EnumerateFromCuts drops these
					}
					if x, y := got.Extract(c), ref.refExtract(c); !x.Equal(y) {
						t.Fatalf("%s K=%d g=%d: Extract %s, reference %s", name, k, g, x, y)
					}
					if x, y := got.GateSavings(c), refGateSavings(c, g, ref.Gates); x != y {
						t.Fatalf("%s K=%d g=%d: GateSavings %d, reference %d", name, k, g, x, y)
					}
				}
			}
			if n == 0 {
				t.Fatalf("%s K=%d: no subcircuits", name, k)
			}
		}
	}
	if len(want) != 0 {
		t.Fatalf("circuits missing from gen.Suite: %v", want)
	}
}

// TestSubcircuitForConstantInCut: a constant listed in a cut is absorbed
// into the gates, as the reference's constant absorption does, and never
// becomes an input.
func TestSubcircuitForConstantInCut(t *testing.T) {
	c := circuit.New("t")
	a := c.AddInput("a")
	k := c.AddGate(circuit.Const1, "k")
	g1 := c.AddGate(circuit.And, "g1", a, k)
	g := c.AddGate(circuit.Not, "g", g1)
	c.MarkOutput(g)
	cut := []int{a, k}
	got, ref := SubcircuitFor(c, g, cut), refSubcircuitFor(c, g, cut)
	if !slices.Equal(got.Inputs, []int{a}) || !slices.Equal(ref.Inputs, []int{a}) {
		t.Fatalf("inputs %v, reference %v, want [%d]", got.Inputs, ref.Inputs, a)
	}
	if len(got.Gates) != 3 || len(ref.Gates) != 3 || !slices.Contains(got.Gates, k) || !ref.Gates[k] {
		t.Fatalf("gates %v, reference %v: constant not absorbed", got.Gates, ref.Gates)
	}
	checkTopological(t, c, g, got.Gates)
}

// TestCandidateAllocs pins the allocation cost of one warm candidate: the
// walk allocates only the Subcircuit and its one ID slice, Extract only the
// returned table, and GateSavings nothing.
func TestCandidateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	var c *circuit.Circuit
	for _, b := range gen.Suite(0.15) {
		if b.Name == "rs5378" {
			c = b.Build()
		}
	}
	db := ComputeCuts(c, 5, 0)
	var g int
	var cut []int
	for _, id := range c.Topo() {
		for _, cu := range db.Cuts(id) {
			if s := SubcircuitFor(c, id, cu); s != nil && len(s.Gates) > 3 && len(s.Inputs) > 0 {
				g, cut = id, cu
			}
		}
	}
	if cut == nil {
		t.Fatal("no multi-gate candidate")
	}
	c.Fanouts(g) // warm the fanout cache
	n := testing.AllocsPerRun(200, func() {
		s := SubcircuitFor(c, g, cut)
		s.Extract(c)
		s.GateSavings(c)
	})
	if n != 3 {
		t.Fatalf("SubcircuitFor+Extract+GateSavings allocates %v times, want 3 (Subcircuit, its IDs, the table's words)", n)
	}
}

// TestCandidatesConcurrent: the pooled scratch keeps concurrent callers
// apart (table rows that run in parallel each resynthesize their own
// circuit on their own goroutine).
// Four goroutines walk, extract and cost every cut of rs9234 at K=6 and
// must each reproduce the serial results.
func TestCandidatesConcurrent(t *testing.T) {
	var c *circuit.Circuit
	for _, b := range gen.Suite(0.15) {
		if b.Name == "rs9234" {
			c = b.Build()
		}
	}
	db := ComputeCuts(c, 6, 0)
	c.RebuildFanouts() // GateSavings reads the fanout cache; fill it before the fan-out
	type result struct {
		tt    string
		saved int
	}
	run := func() []result {
		var out []result
		for _, g := range c.Topo() {
			for _, s := range db.EnumerateFromCuts(c, g) {
				out = append(out, result{s.Extract(c).Hex(), s.GateSavings(c)})
			}
		}
		return out
	}
	want := run()
	got := make([][]result, 4)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = run()
		}()
	}
	wg.Wait()
	for w := range got {
		if !slices.Equal(got[w], want) {
			t.Fatalf("goroutine %d: results differ from the serial run", w)
		}
	}
}
