package subckt

import (
	"reflect"
	"testing"

	"compsynth/internal/circuit"
	"compsynth/internal/gen"
)

// refRemovable is the original definition of Removable, kept as the
// reference: starting from {Out}, add any gate of C' that drives no PO and
// whose every fanout pin goes to a gate already in the set, until nothing
// changes.
func refRemovable(c *circuit.Circuit, out int, gates map[int]bool) map[int]bool {
	rm := map[int]bool{out: true}
	for {
		changed := false
		for id := range gates {
			if rm[id] || id == out {
				continue
			}
			if c.NumPOUses(id) > 0 {
				continue
			}
			ok := true
			for _, consumer := range c.Fanouts(id) {
				if !rm[consumer] {
					ok = false
					break
				}
			}
			if ok {
				rm[id] = true
				changed = true
			}
		}
		if !changed {
			return rm
		}
	}
}

// refGateSavings is GateSavings over refRemovable.
func refGateSavings(c *circuit.Circuit, out int, gates map[int]bool) int {
	n := 0
	for id := range refRemovable(c, out, gates) {
		nd := c.Nodes[id]
		n += circuit.Equiv2Weight(nd.Type, len(nd.Fanin))
	}
	return n
}

func setOf(ids []int) map[int]bool {
	m := map[int]bool{}
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func isGate(c *circuit.Circuit, id int) bool {
	t := c.Nodes[id].Type
	return t != circuit.Input && t != circuit.Const0 && t != circuit.Const1
}

// checkRemovable compares Removable and GateSavings with the reference on
// every cut-enumerated candidate of every gate of c and returns how many
// candidates it checked.
func checkRemovable(t *testing.T, name string, c *circuit.Circuit, k int) int {
	t.Helper()
	db := ComputeCuts(c, k, 0)
	n := 0
	for _, g := range c.Topo() {
		if !isGate(c, g) {
			continue
		}
		for _, s := range db.EnumerateFromCuts(c, g) {
			n++
			got, want := s.Removable(c), refRemovable(c, g, setOf(s.Gates))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s K=%d out=%d gates=%v: Removable = %v, want %v",
					name, k, g, s.Gates, got, want)
			}
			if got, want := s.GateSavings(c), refGateSavings(c, g, setOf(s.Gates)); got != want {
				t.Fatalf("%s K=%d out=%d: GateSavings = %d, want %d", name, k, g, got, want)
			}
		}
	}
	return n
}

// TestRemovableMatchesRef: the single reverse-topological pass reaches the
// fixpoint's set on every candidate of three suite circuits at K=5 and 6,
// both as generated and with every third gate also made a primary output,
// so PO drivers sit inside many candidates.
func TestRemovableMatchesRef(t *testing.T) {
	want := map[string]bool{"rs5378": true, "rs9234": true, "rs35932": true}
	for _, b := range gen.Suite(0.15) {
		if !want[b.Name] {
			continue
		}
		c := b.Build()
		withPOs := b.Build()
		for i, id := range withPOs.Topo() {
			if isGate(withPOs, id) && i%3 == 0 {
				withPOs.MarkOutput(id)
			}
		}
		for _, k := range []int{5, 6} {
			if n := checkRemovable(t, b.Name, c, k); n == 0 {
				t.Fatalf("%s K=%d: no candidates", b.Name, k)
			}
			checkRemovable(t, b.Name+"+POs", withPOs, k)
		}
		delete(want, b.Name)
	}
	if len(want) != 0 {
		t.Fatalf("circuits missing from gen.Suite: %v", want)
	}
}

// TestRemovablePODriverChain: g1 feeds only g2, but g2 drives a PO, so
// neither is removable even though g1's one consumer is inside C'.
func TestRemovablePODriverChain(t *testing.T) {
	c := circuit.New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	d := c.AddInput("d")
	g1 := c.AddGate(circuit.And, "g1", a, b)
	g2 := c.AddGate(circuit.Or, "g2", g1, d)
	g3 := c.AddGate(circuit.Nand, "g3", g2, a)
	c.MarkOutput(g2)
	c.MarkOutput(g3)
	s := &Subcircuit{Out: g3, Gates: []int{g1, g2, g3}, Inputs: []int{a, b, d}}
	want := map[int]bool{g3: true}
	if got := s.Removable(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("Removable = %v, want %v", got, want)
	}
	if got := refRemovable(c, g3, setOf(s.Gates)); !reflect.DeepEqual(got, want) {
		t.Fatalf("refRemovable = %v, want %v", got, want)
	}
	if got := s.GateSavings(c); got != 1 {
		t.Fatalf("GateSavings = %d, want 1", got)
	}
}
