// Parallel-scaling benchmarks: every engine below resolves Workers=0 to
// runtime.GOMAXPROCS(0), so `go test -bench 'Parallel' -cpu 1,4` sweeps the
// serial baseline against the 4-worker fan-out of the identical workload
// (results are bit-identical; only wall-clock changes). scripts/bench.sh
// records the sweep as BENCH_<date>.json.
//
// Unlike the table benches above, these rebuild their state each iteration
// (fresh Suite, fresh optimizer) so iteration 2+ cannot ride the memo
// caches and every measured iteration performs the full workload.
package compsynth

import (
	"testing"

	"compsynth/internal/exper"
	"compsynth/internal/faults"
	"compsynth/internal/faultsim"
	"compsynth/internal/gen"
	"compsynth/internal/resynth"
)

var parallelItems []exper.Named

// parallelSuiteItems prepares the benchmark circuits once (untimed); the
// per-iteration Suite is fresh so Procedure 2 really runs every iteration.
func parallelSuiteItems(b *testing.B) []exper.Named {
	b.Helper()
	if parallelItems == nil {
		cfg := benchConfig()
		items, err := exper.PrepareSuite(cfg)
		if err != nil {
			b.Fatal(err)
		}
		parallelItems = items
	}
	return parallelItems
}

func BenchmarkTable2Parallel(b *testing.B) {
	items := parallelSuiteItems(b)
	cfg := benchConfig()
	cfg.Workers = 0 // GOMAXPROCS: -cpu sets the parallelism
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suite := exper.NewSuite(cfg, items)
		if _, err := exper.Table2(suite); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFaultSimParallel(b *testing.B) {
	c := gen.Suite(0.2)[0].Build()
	fl := faults.Collapse(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		faultsim.Campaign(c, fl, faultsim.CampaignOptions{
			Patterns: 4096, Seed: int64(i), Workers: 0,
		})
	}
}

// BenchmarkResynthParallel runs the default resynthesis sweep, which is
// serial at every worker count; the name is kept because the allocs gate in
// scripts/ci.sh tracks it against BENCH_2026-08-06_lean.json.
func BenchmarkResynthParallel(b *testing.B) {
	c := gen.SmallSuite()[0].Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := resynth.DefaultOptions()
		opt.Verify = false
		if _, err := resynth.Optimize(c, opt); err != nil {
			b.Fatal(err)
		}
	}
}
