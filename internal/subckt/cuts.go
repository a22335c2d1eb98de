package subckt

import (
	"sort"

	"compsynth/internal/circuit"
	"compsynth/internal/digest"
)

// K-feasible cut enumeration (the standard technology-mapping algorithm).
//
// A cut of gate g is a set of lines such that every path from the primary
// inputs to g passes through a line of the set; the gates strictly between
// the cut and g form a single-output subcircuit with the cut as its inputs.
// Cuts reach through arbitrarily wide gates, which the incremental growth of
// Enumerate cannot (a 6-input gate's trivial subcircuit already has 6
// inputs), so the optimizer enumerates candidates from cuts.
//
// cuts(PI)       = { {PI} }
// cuts(constant) = { {} }
// cuts(gate g)   = { {g} } ∪ { c1 ∪ ... ∪ ck : ci ∈ cuts(fanin_i) },
// keeping only sets of at most K lines, capped per node by cut count.

// CutDB holds the K-feasible cuts of every node of one circuit snapshot.
type CutDB struct {
	K       int
	maxCuts int
	cuts    [][][]int // per node: list of cuts; each cut is sorted node IDs
}

// ComputeCuts enumerates up to maxCuts K-feasible cuts per node, smallest
// first. maxCuts <= 0 selects a default of 64.
func ComputeCuts(c *circuit.Circuit, k, maxCuts int) *CutDB {
	db := NewCutDB(c, k, maxCuts)
	for _, id := range c.Topo() {
		db.ComputeNode(c, id)
	}
	return db
}

// NewCutDB returns an empty database sized for c; callers fill it with
// ComputeNode in topological order (ComputeCuts does exactly that). The
// split exists for incremental recomputation: after a local rewiring, only
// the dirty cone's nodes need ComputeNode again.
func NewCutDB(c *circuit.Circuit, k, maxCuts int) *CutDB {
	if maxCuts <= 0 {
		maxCuts = 64
	}
	return &CutDB{K: k, maxCuts: maxCuts, cuts: make([][][]int, len(c.Nodes))}
}

// Grow extends per-node storage to cover IDs up to len(c.Nodes)-1; newly
// covered nodes start with no cuts.
func (db *CutDB) Grow(c *circuit.Circuit) {
	for len(db.cuts) < len(c.Nodes) {
		db.cuts = append(db.cuts, nil)
	}
}

// ComputeNode (re)computes the cuts of one node from its fanins' current cut
// sets, which must already be up to date. The result is a pure function of
// the node's type/fanin and the fanin cut sets, so recomputing any superset
// of the changed cone in topological order reproduces exactly what a full
// ComputeCuts would build.
//
// The node's type and fanin are read through the circuit's frozen CSR view:
// the resynthesis loop calls ComputeNode in bulk between edits (full rebuild
// or dirty-cone refresh), so after the first call of a batch Freeze is a
// two-load cache hit and the sweep reads flat arrays instead of per-node
// heap objects. Cut contents stay keyed by sparse node ID — they outlive
// any one frozen view. Must not be called while another goroutine reads the
// circuit (Freeze refreshes derived caches, like Topo).
func (db *CutDB) ComputeNode(c *circuit.Circuit, id int) {
	v := c.Freeze()
	d := v.DenseOf[id]
	if d < 0 {
		db.cuts[id] = nil // dead node: no cuts
		return
	}
	k, maxCuts := db.K, db.maxCuts
	switch v.Kind[d] {
	case circuit.Input:
		db.cuts[id] = [][]int{{id}}
	case circuit.Const0, circuit.Const1:
		db.cuts[id] = [][]int{{}}
	default:
		merged := [][]int{{id}} // the trivial cut
		// Cartesian merge across fanins, width-capped.
		acc := [][]int{{}}
		for _, fd := range v.FaninOf(d) {
			f := int(v.NodeID[fd])
			var next [][]int
			for _, a := range acc {
				for _, cf := range db.cuts[f] {
					u := unionSorted(a, cf, k)
					if u != nil {
						next = append(next, u)
					}
					if len(next) > 4*maxCuts {
						break
					}
				}
				if len(next) > 4*maxCuts {
					break
				}
			}
			acc = dedupeCuts(next)
			if len(acc) > 2*maxCuts {
				sortCuts(acc)
				acc = acc[:2*maxCuts]
			}
			if len(acc) == 0 {
				break
			}
		}
		merged = append(merged, acc...)
		merged = dedupeCuts(merged)
		sortCuts(merged)
		if len(merged) > maxCuts {
			merged = merged[:maxCuts]
		}
		db.cuts[id] = merged
	}
}

// Cuts returns the cuts of node id (shared storage; do not mutate).
func (db *CutDB) Cuts(id int) [][]int { return db.cuts[id] }

// unionSorted merges two sorted sets, returning nil if the union exceeds k.
// Most fanin-cut pairs overflow k, so the union is counted first and only a
// union that fits is allocated.
func unionSorted(a, b []int, k int) []int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case b[j] < a[i]:
			j++
		default:
			i++
			j++
		}
		if n++; n > k {
			return nil
		}
	}
	if n += len(a) - i + len(b) - j; n > k {
		return nil
	}
	out := make([]int, 0, n)
	i, j = 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func dedupeCuts(cs [][]int) [][]int {
	// Cuts are sorted ID slices, so a length-framed digest is a canonical
	// set identity: no per-cut string is built. (The packed-byte string key
	// this replaces also collided for IDs >= 2^24.)
	seen := map[digest.D]bool{}
	out := cs[:0]
	for _, c := range cs {
		k := digest.New().Ints(c)
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

func sortCuts(cs [][]int) {
	sort.Slice(cs, func(i, j int) bool {
		if len(cs[i]) != len(cs[j]) {
			return len(cs[i]) < len(cs[j])
		}
		for x := range cs[i] {
			if cs[i][x] != cs[j][x] {
				return cs[i][x] < cs[j][x]
			}
		}
		return false
	})
}

// SubcircuitFor materializes the subcircuit induced by a cut of g: all gates
// on paths between the cut lines and g. Returns nil for the trivial cut {g}
// or when the cut yields no gates.
func SubcircuitFor(c *circuit.Circuit, g int, cut []int) *Subcircuit {
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
			return false // a path escapes the cut: not a valid cover
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
	return newSub(c, g, gates)
}

// EnumerateFromCuts generates the candidate subcircuits of g from its cut
// set. The single-gate candidate (cut = fanins of g) comes first when it is
// K-feasible.
func (db *CutDB) EnumerateFromCuts(c *circuit.Circuit, g int) []*Subcircuit {
	var out []*Subcircuit
	for _, cut := range db.cuts[g] {
		s := SubcircuitFor(c, g, cut)
		if s != nil && len(s.Inputs) > 0 {
			out = append(out, s)
		}
	}
	return out
}
