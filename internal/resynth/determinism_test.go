package resynth

import (
	"fmt"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/gen"
	"compsynth/internal/logic"
)

// checkTwice optimizes c twice with the same options and fails if the two
// runs differ in statistics or netlist (canonical bench text): a visit order
// that leaked from map iteration, or state carried between runs, shows up
// here.
func checkTwice(t *testing.T, name string, c *circuit.Circuit, opt Options) {
	t.Helper()
	var stats, nets [2]string
	for i := range stats {
		res, err := Optimize(c, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stats[i], nets[i] = res.String(), bench.String(res.Circuit)
	}
	if stats[0] != stats[1] {
		t.Errorf("%s: stats diverge: %s, then %s", name, stats[0], stats[1])
	}
	if nets[0] != nets[1] {
		t.Errorf("%s: netlists diverge between two runs", name)
	}
}

// TestOptimizeDeterministic is the determinism contract: for every
// objective, two runs on the same input produce structurally identical
// circuits with identical statistics.
func TestOptimizeDeterministic(t *testing.T) {
	for _, b := range gen.SmallSuite() {
		c := b.Build()
		for _, objective := range []Objective{MinGates, MinPaths, Combined} {
			opt := DefaultOptions()
			opt.Objective = objective
			opt.MaxPasses = 4
			opt.Verify = false
			checkTwice(t, fmt.Sprintf("%s/%v", b.Name, objective), c, opt)
		}
	}
}

// TestOptimizeDeterministicSampling covers the sampling identification
// mode, where determinism additionally depends on the per-truth-table RNG
// derivation (a shared RNG stream would couple draws to the sweep's
// history).
func TestOptimizeDeterministicSampling(t *testing.T) {
	f := logic.FromMinterms(4, []int{1, 2, 4, 7, 8, 11, 13, 14})
	for _, seed := range []int64{1, 2, 1995} {
		c := sopCircuit(f, fmt.Sprintf("samp%d", seed))
		opt := DefaultOptions()
		opt.UseSampling = true
		opt.SamplingPerms = 40
		opt.Seed = seed
		opt.Verify = false
		checkTwice(t, fmt.Sprintf("seed %d", seed), c, opt)
	}
}

// TestOptimizeDeterministicExtensions covers the Section 6 extensions,
// multi-unit realizations and satisfiability don't-cares, alone and
// together, on a hand-built function and on a generated circuit.
func TestOptimizeDeterministicExtensions(t *testing.T) {
	f := logic.FromMinterms(4, []int{0, 3, 5, 6, 9, 10, 12, 15})
	circuits := []*circuit.Circuit{sopCircuit(f, "ext"), gen.SmallSuite()[0].Build()}
	for _, c := range circuits {
		for _, sdc := range []bool{false, true} {
			for _, units := range []int{1, 3} {
				opt := DefaultOptions()
				opt.UseSDC = sdc
				opt.MaxUnits = units
				opt.Verify = false
				checkTwice(t, fmt.Sprintf("%s/sdc=%v/units=%d", c.Name, sdc, units), c, opt)
			}
		}
	}
}
