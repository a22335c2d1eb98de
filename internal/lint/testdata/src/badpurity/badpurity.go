// Package badpurity injects purity violations at the two seam kinds: a
// par.Run task writing captured state and a par.Cache.GetOrCompute compute
// closure writing a global. Lint fixture; the go tool never builds
// testdata, only sftlint's own loader does.
package badpurity

import "compsynth/internal/par"

// Sum fans out but accumulates into a captured variable with no barrier —
// the canonical impure task.
func Sum(items []int) int {
	total := 0
	par.Run(nil, "badpurity.sum", 4, len(items), func(_, i int) {
		total += items[i]
	})
	return total
}

// SumIndexed is the clean twin: task-indexed writes are private by
// contract, then reduced serially.
func SumIndexed(items []int) int {
	out := make([]int, len(items))
	par.Run(nil, "badpurity.sum_indexed", 4, len(items), func(_, i int) {
		out[i] = items[i]
	})
	total := 0
	for _, v := range out {
		total += v
	}
	return total
}

var hits int

// Memo's compute closure bumps a package-level counter: computes race, so
// the cached value would depend on scheduling.
func Memo(c *par.Cache[int, int], k int) int {
	return c.GetOrCompute(k, func() int {
		hits++
		return k * 2
	})
}
