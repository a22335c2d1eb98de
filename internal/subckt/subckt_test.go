package subckt

import (
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/logic"
)

func TestEnumerateSingleGateFirst(t *testing.T) {
	c, _ := bench.ParseString(bench.C17, "c17")
	g := c.NodeByName("22")
	subs := Enumerate(c, g, Options{MaxInputs: 5, MaxCandidates: 100})
	if len(subs) == 0 {
		t.Fatal("no candidates")
	}
	if len(subs[0].Gates) != 1 || subs[0].Gates[0] != g {
		t.Fatalf("first candidate not the single gate: %v", subs[0].Gates)
	}
	// Growing candidates exist: 22 = NAND(10,16), absorbing 10 or 16.
	if len(subs) < 3 {
		t.Fatalf("expected more candidates, got %d", len(subs))
	}
}

func TestEnumerateRespectsInputLimit(t *testing.T) {
	c, _ := bench.ParseString(bench.C17, "c17")
	for _, g := range []string{"22", "23", "16"} {
		for k := 2; k <= 6; k++ {
			subs := Enumerate(c, c.NodeByName(g), Options{MaxInputs: k})
			for _, s := range subs {
				if len(s.Inputs) > k {
					t.Fatalf("g=%s k=%d: candidate with %d inputs", g, k, len(s.Inputs))
				}
			}
		}
	}
}

func TestExtractSingleGate(t *testing.T) {
	c := circuit.New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g := c.AddGate(circuit.Nand, "g", a, b)
	c.MarkOutput(g)
	subs := Enumerate(c, g, DefaultOptions())
	tt := subs[0].Extract(c)
	want := logic.Var(2, 1).And(logic.Var(2, 2)).Not()
	// Inputs sorted ascending: a (id 0) is y1, b (id 1) is y2.
	if !tt.Equal(want) {
		t.Fatalf("NAND extract = %s, want %s", tt, want)
	}
}

func TestExtractDeepSubcircuit(t *testing.T) {
	// f = (a AND b) OR (NOT c): enumerate from the OR; the full 3-gate
	// candidate must extract the right 3-input function.
	c := circuit.New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	cc := c.AddInput("c")
	g1 := c.AddGate(circuit.And, "", a, b)
	g2 := c.AddGate(circuit.Not, "", cc)
	g3 := c.AddGate(circuit.Or, "", g1, g2)
	c.MarkOutput(g3)
	subs := Enumerate(c, g3, DefaultOptions())
	var full *Subcircuit
	for _, s := range subs {
		if len(s.Gates) == 3 {
			full = s
		}
	}
	if full == nil {
		t.Fatal("full candidate not enumerated")
	}
	tt := full.Extract(c)
	want := logic.Var(3, 1).And(logic.Var(3, 2)).Or(logic.Var(3, 3).Not())
	if !tt.Equal(want) {
		t.Fatalf("extract = %s, want %s", tt, want)
	}
}

func TestExtractMatchesHostSimulation(t *testing.T) {
	c, _ := bench.ParseString(bench.C17, "c17")
	for _, gname := range []string{"22", "23", "16", "19"} {
		g := c.NodeByName(gname)
		for _, s := range Enumerate(c, g, Options{MaxInputs: 5, MaxCandidates: 50}) {
			tt := s.Extract(c)
			// Check on concrete patterns: drive the host circuit's PIs with
			// every combination and compare the node value against the TT of
			// the subcircuit inputs.
			for m := 0; m < 32; m++ {
				in := make([]bool, 5)
				for i := range in {
					in[i] = m&(1<<i) != 0
				}
				vals := evalAll(c, in)
				idx := 0
				for j, sin := range s.Inputs {
					if vals[sin] {
						idx |= 1 << (len(s.Inputs) - 1 - j)
					}
				}
				if tt.Get(idx) != vals[g] {
					t.Fatalf("g=%s gates=%v: mismatch at PI %v", gname, s.Gates, in)
				}
			}
		}
	}
}

// evalAll returns the value of every node for one input assignment.
func evalAll(c *circuit.Circuit, pi []bool) []bool {
	val := make([]bool, len(c.Nodes))
	for i, id := range c.Inputs {
		val[id] = pi[i]
	}
	for _, id := range c.Topo() {
		nd := c.Nodes[id]
		if nd.Type == circuit.Input {
			continue
		}
		in := make([]bool, len(nd.Fanin))
		for i, f := range nd.Fanin {
			in[i] = val[f]
		}
		val[id] = nd.Type.Eval(in)
	}
	return val
}

func TestRemovableRespectsFanout(t *testing.T) {
	// g1 fans out to g2 (inside) and g3 (outside): not removable.
	c := circuit.New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g1 := c.AddGate(circuit.And, "g1", a, b)
	g2 := c.AddGate(circuit.Not, "g2", g1)
	g3 := c.AddGate(circuit.Or, "g3", g1, a)
	c.MarkOutput(g2)
	c.MarkOutput(g3)
	s := &Subcircuit{Out: g2, Gates: []int{g1, g2}, Inputs: []int{a, b}}
	rm := s.Removable(c)
	if !rm[g2] {
		t.Fatal("output gate must be removable")
	}
	if rm[g1] {
		t.Fatal("shared gate g1 must not be removable")
	}
	if s.GateSavings(c) != 0 {
		// g2 is a NOT: weight 0; g1 shared.
		t.Fatalf("savings = %d, want 0", s.GateSavings(c))
	}
}

func TestRemovableChain(t *testing.T) {
	// Chain entirely inside the candidate: everything removable.
	c := circuit.New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	d := c.AddInput("d")
	g1 := c.AddGate(circuit.And, "g1", a, b)
	g2 := c.AddGate(circuit.Or, "g2", g1, d)
	c.MarkOutput(g2)
	s := &Subcircuit{Out: g2, Gates: []int{g1, g2}, Inputs: []int{a, b, d}}
	rm := s.Removable(c)
	if !rm[g1] || !rm[g2] {
		t.Fatalf("removable = %v", rm)
	}
	if s.GateSavings(c) != 2 {
		t.Fatalf("savings = %d, want 2", s.GateSavings(c))
	}
}

func TestRemovablePODriverInside(t *testing.T) {
	// An internal gate that drives a PO must not be removable.
	c := circuit.New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g1 := c.AddGate(circuit.And, "g1", a, b)
	g2 := c.AddGate(circuit.Not, "g2", g1)
	c.MarkOutput(g1)
	c.MarkOutput(g2)
	s := &Subcircuit{Out: g2, Gates: []int{g1, g2}, Inputs: []int{a, b}}
	if s.Removable(c)[g1] {
		t.Fatal("PO driver marked removable")
	}
}

func TestConstantAbsorption(t *testing.T) {
	c := circuit.New("t")
	a := c.AddInput("a")
	k := c.AddGate(circuit.Const1, "")
	g := c.AddGate(circuit.Xor, "g", a, k)
	c.MarkOutput(g)
	subs := Enumerate(c, g, DefaultOptions())
	s := subs[0]
	if len(s.Inputs) != 1 || s.Inputs[0] != a {
		t.Fatalf("constant not absorbed: inputs %v", s.Inputs)
	}
	tt := s.Extract(c)
	if !tt.Equal(logic.Var(1, 1).Not()) {
		t.Fatalf("extract with absorbed const = %s", tt)
	}
}

func TestEnumerateCapsCandidates(t *testing.T) {
	c, _ := bench.ParseString(bench.C17, "c17")
	subs := Enumerate(c, c.NodeByName("22"), Options{MaxInputs: 5, MaxCandidates: 2})
	if len(subs) > 2 {
		t.Fatalf("cap ignored: %d candidates", len(subs))
	}
}
