package resynth

import (
	"fmt"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/gen"
	"compsynth/internal/logic"
)

// runWorkers optimizes c with the given worker count and returns the result
// plus the netlist in canonical bench text (structural identity check).
func runWorkers(t *testing.T, c *circuit.Circuit, opt Options, workers int) (*Result, string) {
	t.Helper()
	opt.Workers = workers
	res, err := Optimize(c, opt)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return res, bench.String(res.Circuit)
}

// TestParallelMatchesSerial is the determinism contract: for every
// objective, Optimize with 8 workers produces a circuit structurally
// identical to the serial run, with identical statistics.
func TestParallelMatchesSerial(t *testing.T) {
	for _, b := range gen.SmallSuite() {
		c := b.Build()
		for _, objective := range []Objective{MinGates, MinPaths, Combined} {
			opt := DefaultOptions()
			opt.Objective = objective
			opt.MaxPasses = 4
			opt.Verify = false
			serial, serialNet := runWorkers(t, c, opt, 1)
			parallel, parallelNet := runWorkers(t, c, opt, 8)
			if serial.String() != parallel.String() {
				t.Errorf("%s/%v: stats diverge: serial %s, parallel %s",
					b.Name, objective, serial, parallel)
			}
			if serialNet != parallelNet {
				t.Errorf("%s/%v: netlists diverge under parallelism", b.Name, objective)
			}
		}
	}
}

// TestParallelMatchesSerialSampling covers the sampling identification
// mode, where determinism additionally depends on the per-truth-table RNG
// derivation (a shared RNG stream would make results depend on visit
// interleaving).
func TestParallelMatchesSerialSampling(t *testing.T) {
	f := logic.FromMinterms(4, []int{1, 2, 4, 7, 8, 11, 13, 14})
	for _, seed := range []int64{1, 2, 1995} {
		c := sopCircuit(f, fmt.Sprintf("samp%d", seed))
		opt := DefaultOptions()
		opt.UseSampling = true
		opt.SamplingPerms = 40
		opt.Seed = seed
		opt.Verify = false
		serial, serialNet := runWorkers(t, c, opt, 1)
		parallel, parallelNet := runWorkers(t, c, opt, 8)
		if serialNet != parallelNet {
			t.Errorf("seed %d: sampling netlists diverge (serial %s, parallel %s)",
				seed, serial, parallel)
		}
	}
}

// TestParallelMatchesSerialExtensions covers the Section 6 extensions:
// multi-unit realizations and satisfiability don't-cares.
func TestParallelMatchesSerialExtensions(t *testing.T) {
	f := logic.FromMinterms(4, []int{0, 3, 5, 6, 9, 10, 12, 15})
	c := sopCircuit(f, "ext")
	opt := DefaultOptions()
	opt.MaxUnits = 3
	opt.UseSDC = true
	opt.Verify = false
	_, serialNet := runWorkers(t, c, opt, 1)
	_, parallelNet := runWorkers(t, c, opt, 8)
	if serialNet != parallelNet {
		t.Error("extension netlists diverge under parallelism")
	}
}
