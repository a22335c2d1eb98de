package logic

import "compsynth/internal/digest"

// Key is a fixed-size, comparable identity for a truth table, built so the
// hot identification caches never allocate a string per lookup:
//
//   - n <= 6 (one word): the key embeds the word itself, so it is EXACT —
//     two tables share a key iff they are the same function. Every
//     subcircuit at the paper's K = 5..6 lands here.
//   - n >= 7: the key is a 128-bit digest of the word slice. Collisions are
//     possible in principle but need ~2^64 distinct functions to become
//     likely, far beyond any enumeration this system performs.
//
// N participates in the key, so equal bit patterns over different variable
// counts never collide. Keys are deterministic across processes (the digest
// is seedless), which lets sampling-mode RNG seeds be derived from them.
type Key struct {
	N      int32
	Lo, Hi uint64
}

// Key returns the table's cache key. It performs no allocation.
func (t TT) Key() Key {
	if t.n <= 6 {
		return Key{N: int32(t.n), Lo: t.words[0]}
	}
	d := digest.New().Words(t.words)
	return Key{N: int32(t.n), Lo: d.Lo, Hi: d.Hi}
}

// Seed folds the key and a base seed into a deterministic RNG seed: a pure
// function of (base, function), independent of visit order and worker
// count, as required by sampling-mode identification under the sharded
// resynthesis sweep.
func (k Key) Seed(base int64) int64 {
	return int64(digest.New().Word(uint64(base)).Word(uint64(k.N)).Word(k.Lo).Word(k.Hi).Sum64())
}
