package compsynth

import (
	"testing"

	"compsynth/internal/atpg"
	"compsynth/internal/faults"
	"compsynth/internal/faultsim"
	"compsynth/internal/gen"
)

// BenchmarkPODEM times the PODEM layer on the work redundancy removal gives
// it: the hard faults of rs13207 (the -quick scale) that survive the
// 2048-pattern random filter of Remove's first round, each run to a
// verdict at the production backtrack limit. The circuit is prepared as
// Remove prepares it and is not rewritten, so every iteration repeats
// exactly the same searches. One op is one pass over the fault list.
func BenchmarkPODEM(b *testing.B) {
	c := gen.Suite(0.15)[3].Build() // rs13207 analog
	c.Simplify()
	c.Strash()
	c, _ = c.Compact()
	hard := faultsim.Campaign(c, faults.Collapse(c), faultsim.CampaignOptions{Patterns: 2048, Seed: 15}).Remaining
	opt := atpg.Options{BacktrackLimit: 20000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range hard {
			atpg.Generate(c, f, opt)
		}
	}
}
