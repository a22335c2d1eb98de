package rambo

import (
	"fmt"

	"compsynth/internal/circuit"
	"compsynth/internal/logic"
	"compsynth/internal/paths"
	"compsynth/internal/simulate"
	"compsynth/internal/subckt"
)

// Options configures the baseline optimizer.
type Options struct {
	K             int  // cut input limit
	MaxCandidates int  // cuts per node
	MaxPasses     int  // fixpoint cap
	Verify        bool // equivalence check per pass
	TryComplement bool // also minimize the offset and invert
	Seed          int64
}

// DefaultOptions mirrors the paper's comparison setup (K = 6 in Table 3).
func DefaultOptions() Options {
	return Options{K: 6, MaxCandidates: 24, MaxPasses: 12, Verify: true, TryComplement: true, Seed: 1993}
}

// Result reports an optimization run.
type Result struct {
	Circuit      *circuit.Circuit
	Passes       int
	Replacements int
	GatesBefore  int
	GatesAfter   int
	PathsBefore  uint64
	PathsAfter   uint64
}

func (r *Result) String() string {
	return fmt.Sprintf("passes=%d repl=%d gates %d->%d paths %d->%d",
		r.Passes, r.Replacements, r.GatesBefore, r.GatesAfter, r.PathsBefore, r.PathsAfter)
}

// Optimize resubstitutes K-input cones by minimized factored realizations
// whenever that reduces the equivalent-2-input gate count. The input circuit
// is not modified.
func Optimize(c *circuit.Circuit, opt Options) (*Result, error) {
	if opt.K <= 0 || opt.MaxPasses <= 0 {
		return nil, fmt.Errorf("rambo: invalid options")
	}
	poNames := c.PONames()
	work := c.Clone()
	work.Simplify()
	work, _ = work.Compact()
	res := &Result{GatesBefore: c.Equiv2Count(), PathsBefore: paths.MustCount(c)}
	cache := map[string][]Cube{}
	for pass := 0; pass < opt.MaxPasses; pass++ {
		before := work.Clone()
		n := onePass(work, opt, cache)
		res.Passes++
		res.Replacements += n
		work.Simplify()
		work, _ = work.Compact()
		if opt.Verify && !simulate.EquivalentRandom(before, work, 32, 14, opt.Seed+int64(pass)) {
			return nil, fmt.Errorf("rambo: pass %d broke equivalence", pass)
		}
		if n == 0 {
			break
		}
	}
	work.PreservePONames(poNames)
	res.Circuit = work
	res.GatesAfter = work.Equiv2Count()
	res.PathsAfter = paths.MustCount(work)
	return res, nil
}

func onePass(c *circuit.Circuit, opt Options, cache map[string][]Cube) int {
	db := subckt.ComputeCuts(c, opt.K, opt.MaxCandidates)
	topo := c.Topo()
	replaced := 0
	for i := len(topo) - 1; i >= 0; i-- {
		g := topo[i]
		if !c.Alive(g) {
			continue
		}
		nd := c.Nodes[g]
		if nd.Type == circuit.Input || nd.Type == circuit.Const0 || nd.Type == circuit.Const1 {
			continue
		}
		type plan struct {
			sub        *subckt.Subcircuit
			cubes      []Cube
			complement bool
			keepInputs []int
			save       int
		}
		var best *plan
		for _, sub := range db.EnumerateFromCuts(c, g) {
			tt := sub.Extract(c)
			stt, kept := tt.Shrink()
			if stt.Vars() == 0 {
				continue
			}
			keepInputs := make([]int, len(kept))
			for j, v := range kept {
				keepInputs[j] = sub.Inputs[v-1]
			}
			// N depends on the candidate, not on which polarity realizes it.
			saved := sub.GateSavings(c)
			for _, compl := range complements(opt) {
				f := stt
				if compl {
					f = stt.Not()
				}
				cubes := minimizeCached(cache, f)
				cost, _ := FactoredCost(f.Vars(), cubes)
				save := saved - cost
				if best == nil || save > best.save {
					best = &plan{sub: sub, cubes: cubes, complement: compl,
						keepInputs: keepInputs, save: save}
				}
			}
		}
		if best == nil || best.save <= 0 {
			continue
		}
		n := len(best.keepInputs)
		out := BuildFactored(c, n, best.cubes, best.keepInputs, fmt.Sprintf("rb%d_", g))
		if best.complement {
			out = c.AddGate(circuit.Not, fmt.Sprintf("rb%d_inv", g), out)
		}
		if out == g {
			continue
		}
		c.ReplaceUses(g, out)
		c.SweepDead()
		replaced++
	}
	return replaced
}

func complements(opt Options) []bool {
	if opt.TryComplement {
		return []bool{false, true}
	}
	return []bool{false}
}

func minimizeCached(cache map[string][]Cube, tt logic.TT) []Cube {
	key := fmt.Sprintf("%d:%x", tt.Vars(), tt.Words())
	if c, ok := cache[key]; ok {
		return c
	}
	c := Minimize(tt)
	cache[key] = c
	return c
}
