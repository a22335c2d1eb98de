// Package subckt enumerates candidate subcircuits for replacement and
// extracts the functions they implement (Section 4.1 of the paper).
//
// A candidate C' is a set of gates with a designated output g. Its inputs I'
// are the lines that feed gates of C' from outside. Starting from the single
// gate driving g, candidates grow by absorbing a gate that drives one of the
// current inputs, as long as the input count stays within the limit K.
package subckt

import (
	"fmt"
	"slices"
	"sync"

	"compsynth/internal/circuit"
	"compsynth/internal/logic"
)

// Subcircuit is one candidate C' with output Out.
type Subcircuit struct {
	Out    int   // output node ID (a gate of the host circuit)
	Gates  []int // node IDs inside C' (absorbed constants included), topologically ordered, Out last
	Inputs []int // external driving node IDs, sorted ascending
}

// Options bounds the enumeration.
type Options struct {
	// MaxInputs is K, the input limit for candidate subcircuits.
	MaxInputs int
	// MaxCandidates caps the number of candidates generated per output
	// (0 = unlimited). The paper's enumeration is exhaustive; the cap keeps
	// worst-case gates from dominating runtime.
	MaxCandidates int
}

// DefaultOptions matches the paper's experiments (K = 5).
func DefaultOptions() Options {
	return Options{MaxInputs: 5, MaxCandidates: 300}
}

// Enumerate generates the candidate subcircuits with output g, in expansion
// order, starting with the single-gate subcircuit. g must be a gate output.
// Two expansions that reach the same gate set yield one candidate.
func Enumerate(c *circuit.Circuit, g int, opt Options) []*Subcircuit {
	nd := c.Nodes[g]
	if nd.Type == circuit.Input {
		panic("subckt: enumeration from a primary input")
	}
	first := newSub(c, g, []int{g})
	if len(first.Inputs) > opt.MaxInputs {
		return nil
	}
	out := []*Subcircuit{first}
	seen := map[string]bool{gateSet(first.Gates): true}
	for i := 0; i < len(out); i++ {
		if opt.MaxCandidates > 0 && len(out) >= opt.MaxCandidates {
			break
		}
		cur := out[i]
		for _, in := range cur.Inputs {
			h := c.Nodes[in]
			if h.Type == circuit.Input {
				continue
			}
			cand := newSub(c, g, append(slices.Clone(cur.Gates), in))
			if len(cand.Inputs) > opt.MaxInputs || len(cand.Inputs) == 0 {
				continue
			}
			k := gateSet(cand.Gates)
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, cand)
			if opt.MaxCandidates > 0 && len(out) >= opt.MaxCandidates {
				break
			}
		}
	}
	return out
}

// gateSet is an exact identity of a gate set: its sorted IDs, printed.
func gateSet(gates []int) string {
	s := slices.Clone(gates)
	slices.Sort(s)
	return fmt.Sprint(s)
}

// newSub builds the candidate with output g over the given gates: it
// absorbs constant drivers, collects the input set and orders the gates.
func newSub(c *circuit.Circuit, g int, gates []int) *Subcircuit {
	// Constants inside cost nothing and have fixed values; absorb them so
	// they never occupy input slots. An absorbed constant has no fanin, so
	// the scan over the growing slice visits it as a no-op.
	var inputs []int
	for i := 0; i < len(gates); i++ {
		for _, f := range c.Nodes[gates[i]].Fanin {
			if slices.Contains(gates, f) {
				continue
			}
			t := c.Nodes[f].Type
			if t == circuit.Const0 || t == circuit.Const1 {
				gates = append(gates, f)
				continue
			}
			if !slices.Contains(inputs, f) {
				inputs = append(inputs, f)
			}
		}
	}
	slices.Sort(inputs)
	return &Subcircuit{Out: g, Gates: topoOrder(c, g, gates), Inputs: inputs}
}

// topoOrder returns gates in DFS post-order from g over fanin edges that
// stay inside the set, so every gate follows its fanins and g comes last.
// Every gate of a candidate reaches g: each was absorbed as the driver of
// a line already inside.
func topoOrder(c *circuit.Circuit, g int, gates []int) []int {
	order := make([]int, 0, len(gates))
	var visit func(id int)
	visit = func(id int) {
		if !slices.Contains(gates, id) || slices.Contains(order, id) {
			return
		}
		for _, f := range c.Nodes[id].Fanin {
			visit(f)
		}
		order = append(order, id)
	}
	visit(g)
	if len(order) != len(gates) {
		panic("subckt: candidate gate does not reach its output")
	}
	return order
}

// varTabs caches the variable truth tables Var(n, 1..n) per input count, so
// Extract does not rebuild them for every candidate. The tables are
// immutable once published.
var (
	varTabMu sync.Mutex
	varTabs  = map[int][]logic.TT{}
)

func varTablesFor(n int) []logic.TT {
	varTabMu.Lock()
	defer varTabMu.Unlock()
	if t, ok := varTabs[n]; ok {
		return t
	}
	t := make([]logic.TT, n)
	for j := 0; j < n; j++ {
		t[j] = logic.Var(n, j+1)
	}
	varTabs[n] = t
	return t
}

// scratch is the pooled working set of SubcircuitFor, Extract and
// markRemovable: the cut walk's gate order and reached-cut flags, the
// evaluation values (Inputs first, then Gates, by position), per-gate
// removability, and the fanin word buffer. The sets involved are tiny —
// |Gates| + |Inputs| is bounded by the cone of a K-input cut — so
// membership is a linear scan. Pooled so concurrent callers (table rows
// that run in parallel) each grab their own.
type scratch struct {
	gates   []int
	reached []bool
	vals    []uint64
	rm      []bool
	buf     []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// index returns the position of id in s.Inputs ++ s.Gates, the layout of
// scratch.vals, or -1.
func (s *Subcircuit) index(id int) int {
	if i := slices.Index(s.Inputs, id); i >= 0 {
		return i
	}
	if i := slices.Index(s.Gates, id); i >= 0 {
		return len(s.Inputs) + i
	}
	return -1
}

// Extract computes the truth table of the function C' implements on Out,
// over the inputs in Subcircuit.Inputs order (input j = variable y_{j+1},
// most significant first, per the logic package convention). All working
// storage comes from a pooled scratch, so steady-state calls allocate only
// the returned table.
func (s *Subcircuit) Extract(c *circuit.Circuit) logic.TT {
	n := len(s.Inputs)
	tt := logic.New(n)
	vt := varTablesFor(n)
	sc := scratchPool.Get().(*scratch)
	sc.vals = slices.Grow(sc.vals[:0], n+len(s.Gates))[:n+len(s.Gates)]
	// Evaluate the gates in their stored topological order, 64 minterms at
	// a time, driving each input with its variable pattern.
	words := tt.Words()
	for w := range words {
		for j := range s.Inputs {
			sc.vals[j] = vt[j].Words()[w]
		}
		for i, id := range s.Gates {
			nd := c.Nodes[id]
			sc.buf = sc.buf[:0]
			for _, f := range nd.Fanin {
				sc.buf = append(sc.buf, sc.vals[s.index(f)])
			}
			sc.vals[n+i] = nd.Type.EvalWords(sc.buf)
		}
		words[w] = sc.vals[n+len(s.Gates)-1] // Out is the last gate
	}
	// Trim invalid high bits for n < 6.
	if n < 6 {
		words[0] &= (uint64(1) << (1 << n)) - 1
	}
	scratchPool.Put(sc)
	return tt
}

// Removable returns the set of gates that disappear if C' is replaced by a
// new realization driving Out: a gate is removable iff it is not a PO driver
// (Out excepted: its consumers are rewired to the replacement) and every
// fanout pin goes to a removable gate of C'. This implements the paper's
// "common gates are not included in the count N".
func (s *Subcircuit) Removable(c *circuit.Circuit) map[int]bool {
	sc := scratchPool.Get().(*scratch)
	s.markRemovable(c, sc)
	rm := map[int]bool{}
	for i, id := range s.Gates {
		if sc.rm[i] {
			rm[id] = true
		}
	}
	scratchPool.Put(sc)
	return rm
}

// GateSavings returns the equivalent-2-input weight of the removable gates:
// the paper's N for this candidate.
func (s *Subcircuit) GateSavings(c *circuit.Circuit) int {
	sc := scratchPool.Get().(*scratch)
	s.markRemovable(c, sc)
	n := 0
	for i, id := range s.Gates {
		if sc.rm[i] {
			nd := c.Nodes[id]
			n += circuit.Equiv2Weight(nd.Type, len(nd.Fanin))
		}
	}
	scratchPool.Put(sc)
	return n
}

// markRemovable sets sc.rm[i] for each gate s.Gates[i] that Removable
// includes. Every consumer of a gate inside C' comes after it in the
// stored topological order, so one pass in reverse order decides every
// consumer before its producer: the single pass reaches the same set as
// iterating the rule to a fixpoint. Fanouts are checked first, since the
// PO scan is O(#POs).
func (s *Subcircuit) markRemovable(c *circuit.Circuit, sc *scratch) {
	last := len(s.Gates) - 1
	sc.rm = slices.Grow(sc.rm[:0], len(s.Gates))[:len(s.Gates)]
	sc.rm[last] = true // Out
	for i := last - 1; i >= 0; i-- {
		id := s.Gates[i]
		ok := true
		for _, consumer := range c.Fanouts(id) {
			if consumer == s.Out {
				continue
			}
			j := slices.Index(s.Gates, consumer)
			if j < 0 || !sc.rm[j] {
				ok = false
				break
			}
		}
		sc.rm[i] = ok && c.NumPOUses(id) == 0
	}
}
