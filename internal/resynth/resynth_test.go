package resynth

import (
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/gen"
	"compsynth/internal/logic"
	"compsynth/internal/paths"
	"compsynth/internal/simulate"
)

// sopCircuit builds a two-level SOP implementation of a truth table:
// one AND per onset minterm, one OR at the output. Deliberately wasteful in
// gates and paths.
func sopCircuit(tt logic.TT, name string) *circuit.Circuit {
	c := circuit.New(name)
	n := tt.Vars()
	ins := make([]int, n)
	invs := make([]int, n)
	for i := 0; i < n; i++ {
		ins[i] = c.AddInput(string(rune('a' + i)))
	}
	for i := 0; i < n; i++ {
		invs[i] = c.AddGate(circuit.Not, "", ins[i])
	}
	var products []int
	for _, m := range tt.Onset() {
		fan := make([]int, n)
		for i := 0; i < n; i++ {
			if m&(1<<(n-1-i)) != 0 {
				fan[i] = ins[i]
			} else {
				fan[i] = invs[i]
			}
		}
		products = append(products, c.AddGate(circuit.And, "", fan...))
	}
	var out int
	switch len(products) {
	case 0:
		out = c.AddGate(circuit.Const0, "")
	case 1:
		out = products[0]
	default:
		out = c.AddGate(circuit.Or, "", products...)
	}
	c.MarkOutput(out)
	c.SweepDead()
	return c
}

func TestProcedure2OnPaperExample(t *testing.T) {
	// f2 = minterms {1,5,6,9,10,14} (Sec. 3.1) in SOP form: 6 AND4 + OR6 =
	// 6*3+5 = 23 equiv-2 gates, 24 paths. The comparison unit needs far
	// fewer of both.
	f := logic.FromMinterms(4, []int{1, 5, 6, 9, 10, 14})
	c := sopCircuit(f, "f2sop")
	before := c.Equiv2Count()
	opt := DefaultOptions()
	opt.K = 4
	res, err := Optimize(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.GatesAfter >= before {
		t.Fatalf("no gate reduction: %d -> %d", before, res.GatesAfter)
	}
	if res.PathsAfter >= res.PathsBefore {
		t.Fatalf("no path reduction: %d -> %d", res.PathsBefore, res.PathsAfter)
	}
	if !simulate.EquivalentRandom(c, res.Circuit, 8, 6, 1) {
		t.Fatal("function changed")
	}
	if res.Replacements == 0 {
		t.Fatal("no replacements recorded")
	}
}

func TestProcedure2NeverIncreasesGates(t *testing.T) {
	for _, b := range gen.SmallSuite() {
		c := b.Build()
		opt := DefaultOptions()
		opt.K = 5
		res, err := Optimize(c, opt)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if res.GatesAfter > res.GatesBefore {
			t.Fatalf("%s: gates increased %d -> %d", b.Name, res.GatesBefore, res.GatesAfter)
		}
		if !simulate.EquivalentRandom(c, res.Circuit, 32, 12, 7) {
			t.Fatalf("%s: function changed", b.Name)
		}
	}
}

func TestProcedure3ReducesPaths(t *testing.T) {
	for _, b := range gen.SmallSuite() {
		c := b.Build()
		opt := DefaultOptions()
		opt.Objective = MinPaths
		res, err := Optimize(c, opt)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if res.PathsAfter > res.PathsBefore {
			t.Fatalf("%s: paths increased %d -> %d", b.Name, res.PathsBefore, res.PathsAfter)
		}
		if !simulate.EquivalentRandom(c, res.Circuit, 32, 12, 7) {
			t.Fatalf("%s: function changed", b.Name)
		}
	}
}

func TestProcedure3AtLeastAsGoodOnPathsAsProcedure2(t *testing.T) {
	// Table 5 vs Table 2: Procedure 3 reduces paths at least as much.
	b := gen.SmallSuite()[0]
	c := b.Build()
	o2 := DefaultOptions()
	r2, err := Optimize(c, o2)
	if err != nil {
		t.Fatal(err)
	}
	o3 := DefaultOptions()
	o3.Objective = MinPaths
	r3, err := Optimize(c, o3)
	if err != nil {
		t.Fatal(err)
	}
	if r3.PathsAfter > r2.PathsAfter {
		t.Fatalf("Procedure 3 paths %d worse than Procedure 2 paths %d",
			r3.PathsAfter, r2.PathsAfter)
	}
}

func TestCombinedObjectiveRuns(t *testing.T) {
	b := gen.SmallSuite()[1]
	c := b.Build()
	opt := DefaultOptions()
	opt.Objective = Combined
	res, err := Optimize(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !simulate.EquivalentRandom(c, res.Circuit, 32, 12, 3) {
		t.Fatal("combined objective changed the function")
	}
	if res.GatesAfter > res.GatesBefore && res.PathsAfter > res.PathsBefore {
		t.Fatal("combined objective worsened both dimensions")
	}
}

func TestSamplingIdentificationMode(t *testing.T) {
	// The paper's 200-permutation sampling should behave like the exact
	// search on small circuits (possibly missing some replacements).
	f := logic.FromMinterms(4, []int{1, 5, 6, 9, 10, 14})
	c := sopCircuit(f, "f2sop")
	opt := DefaultOptions()
	opt.K = 4
	opt.UseSampling = true
	res, err := Optimize(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !simulate.EquivalentRandom(c, res.Circuit, 8, 6, 1) {
		t.Fatal("sampling mode changed the function")
	}
	if res.GatesAfter >= res.GatesBefore {
		t.Fatalf("sampling mode found no reduction: %d -> %d", res.GatesBefore, res.GatesAfter)
	}
}

func TestOptimizeC17(t *testing.T) {
	c, _ := bench.ParseString(bench.C17, "c17")
	res, err := Optimize(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !simulate.EquivalentRandom(c, res.Circuit, 4, 6, 1) {
		t.Fatal("c17 function changed")
	}
	if res.GatesAfter > res.GatesBefore {
		t.Fatal("c17 gates increased")
	}
}

func TestOptimizeDoesNotMutateInput(t *testing.T) {
	c, _ := bench.ParseString(bench.C17, "c17")
	beforeText := bench.String(c)
	if _, err := Optimize(c, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if bench.String(c) != beforeText {
		t.Fatal("Optimize mutated its input circuit")
	}
}

func TestOptimizeFixpoint(t *testing.T) {
	// Running the optimizer twice should find nothing new the second time.
	b := gen.SmallSuite()[2]
	c := b.Build()
	opt := DefaultOptions()
	r1, err := Optimize(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Optimize(r1.Circuit, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r2.GatesAfter != r1.GatesAfter {
		t.Fatalf("not a fixpoint: %d then %d", r1.GatesAfter, r2.GatesAfter)
	}
}

func TestMultiUnitExtension(t *testing.T) {
	// 3-input majority is not a single comparison function, so plain
	// Procedure 2 cannot touch a majority SOP cone; with MaxUnits=2 the
	// Section 6 extension can rewrite it whenever that pays off. At
	// minimum the option must stay sound.
	maj := logic.FromMinterms(3, []int{3, 5, 6, 7})
	c := sopCircuit(maj, "majsop")
	opt := DefaultOptions()
	opt.K = 3
	opt.MaxUnits = 3
	res, err := Optimize(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !simulate.EquivalentRandom(c, res.Circuit, 8, 6, 1) {
		t.Fatal("multi-unit rewrite changed the function")
	}
	if res.GatesAfter > res.GatesBefore {
		t.Fatalf("multi-unit increased gates %d -> %d", res.GatesBefore, res.GatesAfter)
	}

	for _, b := range gen.SmallSuite()[:2] {
		c := b.Build()
		opt := DefaultOptions()
		opt.MaxUnits = 3
		res, err := Optimize(c, opt)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if !simulate.EquivalentRandom(c, res.Circuit, 32, 12, 5) {
			t.Fatalf("%s: multi-unit changed function", b.Name)
		}
		if res.GatesAfter > res.GatesBefore {
			t.Fatalf("%s: gates increased", b.Name)
		}
	}
}

func TestMultiUnitAtLeastAsGoodOnGates(t *testing.T) {
	b := gen.SmallSuite()[3]
	c := b.Build()
	single, err := Optimize(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.MaxUnits = 3
	multi, err := Optimize(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if multi.GatesAfter > single.GatesAfter {
		t.Fatalf("multi-unit (%d gates) worse than single-unit (%d gates)",
			multi.GatesAfter, single.GatesAfter)
	}
}

func TestInvalidOptions(t *testing.T) {
	c, _ := bench.ParseString(bench.C17, "c17")
	if _, err := Optimize(c, Options{K: 0, MaxPasses: 1}); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestVacuousInputDropped(t *testing.T) {
	// g = AND(a, b) OR AND(a, NOT b) = a: the cone's function does not
	// depend on b; the optimizer should collapse it, removing paths from b.
	c := circuit.New("vac")
	a := c.AddInput("a")
	b := c.AddInput("b")
	nb := c.AddGate(circuit.Not, "", b)
	t1 := c.AddGate(circuit.And, "", a, b)
	t2 := c.AddGate(circuit.And, "", a, nb)
	o := c.AddGate(circuit.Or, "", t1, t2)
	c.MarkOutput(o)
	res, err := Optimize(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.GatesAfter != 0 {
		t.Fatalf("expected full collapse to a wire, gates=%d", res.GatesAfter)
	}
	if paths.MustCount(res.Circuit) != 1 {
		t.Fatalf("paths = %d, want 1", paths.MustCount(res.Circuit))
	}
}

func TestSDCModeSound(t *testing.T) {
	// Reachability don't-cares must never break equivalence or inflate the
	// objective — the completions differ only on input combinations that
	// can never occur.
	for _, b := range gen.SmallSuite()[:3] {
		c := b.Build()
		opt := DefaultOptions()
		opt.UseSDC = true
		res, err := Optimize(c, opt)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if !simulate.EquivalentRandom(c, res.Circuit, 64, 14, 9) {
			t.Fatalf("%s: SDC mode changed the function", b.Name)
		}
		if res.GatesAfter > res.GatesBefore {
			t.Fatalf("%s: SDC mode increased gates", b.Name)
		}
	}
}

func TestSDCModeFindsAtLeastAsMuch(t *testing.T) {
	// With don't-cares available, the optimizer can only have more
	// replacement options; final gate count must not be worse.
	b := gen.SmallSuite()[1]
	c := b.Build()
	plain, err := Optimize(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.UseSDC = true
	sdc, err := Optimize(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sdc.GatesAfter > plain.GatesAfter {
		t.Fatalf("SDC (%d gates) worse than plain (%d gates)", sdc.GatesAfter, plain.GatesAfter)
	}
}

func TestSDCSkipsLargeCircuits(t *testing.T) {
	// Circuits beyond SDCMaxInputs silently fall back to the plain mode.
	p := gen.Params{Name: "big", Inputs: 20, Outputs: 6, Gates: 60, Layers: 5,
		MaxFanin: 3, Locality: 0.7, Seed: 3}
	c := gen.Random(p)
	opt := DefaultOptions()
	opt.UseSDC = true
	opt.SDCMaxInputs = 10
	res, err := Optimize(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !simulate.EquivalentRandom(c, res.Circuit, 32, 10, 4) {
		t.Fatal("fallback path broke equivalence")
	}
}

// TestCareSetFollowsInputOrder pins that the care-set memo keys on the
// ordered input list: asking for the same nodes in another order, on a warm
// cache, must return the care table with its variables permuted to match.
func TestCareSetFollowsInputOrder(t *testing.T) {
	c := circuit.New("care")
	x := c.AddInput("x")
	y := c.AddInput("y")
	z := c.AddInput("z")
	a := c.AddGate(circuit.And, "a", x, y)
	b := c.AddGate(circuit.Or, "b", x, z)
	d := c.AddGate(circuit.Not, "d", x)
	for _, id := range []int{a, b, d} {
		c.MarkOutput(id)
	}
	opt := DefaultOptions()
	opt.UseSDC = true
	o := &optimizer{opt: opt}
	o.rebuildFull(c)

	// x=0 gives (a,b,d) = (0,z,1); x=1 gives (y,1,0).
	abd := o.careSet([]int{a, b, d})
	if want := logic.FromMinterms(3, []int{1, 2, 3, 6}); !abd.Equal(want) {
		t.Fatalf("care(a,b,d) = %v, want %v", abd, want)
	}
	dab := o.careSet([]int{d, a, b})
	if want := logic.FromMinterms(3, []int{1, 3, 4, 5}); !dab.Equal(want) {
		t.Fatalf("care(d,a,b) = %v, want %v", dab, want)
	}
	if want := abd.Permute([]int{2, 0, 1}); !dab.Equal(want) {
		t.Fatalf("care(d,a,b) = %v, want care(a,b,d) permuted = %v", dab, want)
	}
}
