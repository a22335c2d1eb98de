package atpg

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/faults"
	"compsynth/internal/faultsim"
	"compsynth/internal/gen"
)

// sameResult reports whether two results agree on status, test and
// backtrack count: the event-driven engine must make exactly the reference
// engine's decisions, not merely reach the same verdict.
func sameResult(a, b Result) bool {
	return a.Status == b.Status && a.Backtracks == b.Backtracks && slices.Equal(a.Test, b.Test)
}

func checkMatchesRef(t *testing.T, name string, c *circuit.Circuit, f faults.Fault, limit int) {
	t.Helper()
	opt := Options{BacktrackLimit: limit}
	got, want := generate(c, f, opt), refGenerate(c, f, opt)
	if !sameResult(got, want) {
		t.Fatalf("%s: fault %v limit %d: got %v/%d backtracks test %v, reference %v/%d test %v",
			name, f, limit, got.Status, got.Backtracks, got.Test, want.Status, want.Backtracks, want.Test)
	}
}

// suiteCircuits returns the named generator-suite circuits at the -quick
// scale.
func suiteCircuits(names ...string) map[string]*circuit.Circuit {
	out := map[string]*circuit.Circuit{}
	for _, b := range gen.Suite(0.15) {
		if slices.Contains(names, b.Name) {
			out[b.Name] = b.Build()
		}
	}
	return out
}

// TestGenerateMatchesRef runs both engines on every collapsed fault, stem
// and branch, of the hand-written netlists and three raw suite circuits, at
// a small and at the production backtrack limit. Under the race detector
// rs9234 at the production limit checks every refStride-th fault.
func TestGenerateMatchesRef(t *testing.T) {
	type named struct {
		name string
		c    *circuit.Circuit
	}
	var circuits []named
	for _, src := range []struct{ name, text string }{{"c17", bench.C17}, {"adder4", bench.Adder4}} {
		c, err := bench.ParseString(src.text, src.name)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, named{src.name, c})
	}
	suite := suiteCircuits("rs1423", "rs5378", "rs9234")
	for _, name := range []string{"rs1423", "rs5378", "rs9234"} {
		circuits = append(circuits, named{name, suite[name]})
	}
	for _, cc := range circuits {
		stems, branches := 0, 0
		for n, f := range faults.Collapse(cc.c) {
			if f.Pin < 0 {
				stems++
			} else {
				branches++
			}
			checkMatchesRef(t, cc.name, cc.c, f, 100)
			if cc.name != "rs9234" || n%refStride == 0 {
				checkMatchesRef(t, cc.name, cc.c, f, 20000)
			}
		}
		if stems == 0 || branches == 0 {
			t.Fatalf("%s: %d stem and %d branch faults, want both kinds", cc.name, stems, branches)
		}
	}
}

// TestGenerateMatchesRefInRemoval replays redundancy removal's rounds on
// rs9234 (the loop of redundancy.Remove, which this package cannot import)
// and runs both engines on every fault a round hands to PODEM. Redundant
// faults are folded to constants as Remove does, so later calls see
// circuits with constants inside the cone. Under the race detector every
// refStride-th call is compared.
func TestGenerateMatchesRefInRemoval(t *testing.T) {
	const limit, seed = 20000, 15
	work := suiteCircuits("rs9234")["rs9234"]
	work.Simplify()
	work.Strash()
	work, _ = work.Compact()
	calls, folded := 0, 0
	for round := 0; round < 20; round++ {
		fl := faults.Collapse(work)
		sim := faultsim.Campaign(work, fl, faultsim.CampaignOptions{Patterns: 2048, Seed: seed + int64(round)})
		removed := 0
		for _, f := range sim.Remaining {
			if !work.Alive(f.Node) || (f.Pin >= 0 && f.Pin >= len(work.Nodes[f.Node].Fanin)) {
				continue
			}
			if calls%refStride == 0 {
				checkMatchesRef(t, "rs9234", work, f, limit)
			}
			calls++
			if r := generate(work, f, Options{BacktrackLimit: limit}); r.Status == Redundant {
				foldFault(work, f)
				removed++
			}
		}
		folded += removed
		if removed == 0 {
			break
		}
		work.Simplify()
		work.Strash()
		work, _ = work.Compact()
	}
	if folded == 0 {
		t.Fatalf("rs9234: %d PODEM calls folded no redundancy; the constant-cone path went unexercised", calls)
	}
}

// foldFault replaces the faulty line by the constant it is stuck at, as
// redundancy removal's rewrite does.
func foldFault(c *circuit.Circuit, f faults.Fault) {
	if f.Pin < 0 {
		c.SetConstant(f.Node, f.Stuck)
		return
	}
	switch nd := c.Nodes[f.Node]; nd.Type {
	case circuit.Not:
		c.SetConstant(f.Node, !f.Stuck)
	case circuit.Buf:
		c.SetConstant(f.Node, f.Stuck)
	default:
		k := circuit.Const0
		if f.Stuck {
			k = circuit.Const1
		}
		c.SetFanin(f.Node, f.Pin, c.AddGate(k, ""))
	}
}

// TestGenerateConcurrentCalls runs Generate from several goroutines at
// once, each on its own clone of a suite circuit, as the tables row pool
// does. The engines come from a shared pool, so a call must leave nothing
// behind that the next one could see: every goroutine must get the serial
// results.
func TestGenerateConcurrentCalls(t *testing.T) {
	const workers = 4
	c := suiteCircuits("rs5378")["rs5378"]
	fl := faults.Collapse(c)
	opt := Options{BacktrackLimit: 100}
	want := make([]Result, len(fl))
	for i, f := range fl {
		want[i] = Generate(c, f, opt)
	}
	errs := make([]string, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int, c *circuit.Circuit) {
			defer wg.Done()
			for i := range fl {
				j := (i + g*len(fl)/workers) % len(fl)
				if got := Generate(c, fl[j], opt); !sameResult(got, want[j]) {
					errs[g] = fmt.Sprintf("worker %d, fault %v: got %v/%d, serial %v/%d",
						g, fl[j], got.Status, got.Backtracks, want[j].Status, want[j].Backtracks)
					return
				}
			}
		}(g, c.Clone())
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Error(e)
		}
	}
}
