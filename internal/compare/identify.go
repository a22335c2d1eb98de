package compare

import (
	"math/rand"
	"sync"

	"compsynth/internal/logic"
)

// Identification of comparison functions.
//
// The naive method of Section 3.4 tries all n! permutations at O(2^n) each.
// The exact search below removes the n! factor the way the paper's
// Hamiltonian-path remark suggests: it picks the most significant variable
// first and recurses on the cofactors, using the fact that an interval onset
// decomposes as
//
//	f1 = 0            and f0 an interval, or
//	f0 = 0            and f1 an interval, or
//	f0 a suffix (>=L) and f1 a prefix (<=U) over a COMMON remaining order.
//
// Suffix and prefix sets decompose similarly, so inconsistent orders are
// pruned immediately instead of being enumerated.
//
// The recursion runs entirely on pooled scratch: cofactors keep the full
// table width (the chosen half is duplicated, so each level's tables fit
// fixed per-depth slots — see logic.CofactorKeepInto), the permutation is
// assembled top-down in one buffer, and L/U accumulate on the way down.
// Identification is the innermost hot loop of resynthesis; a warm search
// that finds nothing allocates nothing.

// Identify returns a Spec for f if f is a comparison function with its
// onset forming the interval (Complement = false). The constant-0 function
// is not a comparison function; constant-1 is (the full interval).
func Identify(f logic.TT) (Spec, bool) {
	var found Spec
	ok := false
	enumerate(f, false, func(s Spec) bool {
		found, ok = s, true
		return false // stop at the first spec
	})
	return found, ok
}

// IdentifyBest tries the onset first and, failing that, the offset: if the
// complement of f is a comparison function, f is implemented as a comparison
// unit followed by an inverter (Complement = true), as done in the paper's
// experiments.
func IdentifyBest(f logic.TT) (Spec, bool) {
	s, ok := identifyBest(f)
	return s, countIdentify(ok)
}

func identifyBest(f logic.TT) (Spec, bool) {
	if f.IsConst(false) || f.IsConst(true) {
		// Constants are not implemented as units; resynthesis folds them.
		if f.IsConst(true) {
			return Identify(f)
		}
		return Spec{}, false
	}
	if s, ok := Identify(f); ok {
		return s, true
	}
	var found Spec
	ok := false
	enumerateNot(f, func(s Spec) bool {
		found, ok = s, true
		return false
	})
	return found, ok
}

// IdentifyAll enumerates up to limit distinct Specs realizing f (onset
// forms, then complemented forms). Useful for picking the cheapest unit.
func IdentifyAll(f logic.TT, limit int) []Spec {
	var specs []Spec
	seen := map[specKey]bool{}
	add := func(s Spec) bool {
		k := keyOf(s)
		if !seen[k] {
			seen[k] = true
			specs = append(specs, s)
		}
		return len(specs) < limit
	}
	enumerate(f, false, add)
	if len(specs) < limit && !f.IsConst(false) && !f.IsConst(true) {
		enumerateNot(f, add)
	}
	return specs
}

// specKey identifies a Spec exactly, as a comparable value: the
// permutation of a spec over at most logic.MaxVars inputs fits a fixed
// array.
type specKey struct {
	n, l, u    int
	complement bool
	perm       [logic.MaxVars]int8
}

func keyOf(s Spec) specKey {
	k := specKey{n: s.N, l: s.L, u: s.U, complement: s.Complement}
	for i, p := range s.Perm {
		k.perm[i] = int8(p)
	}
	return k
}

// searchCtx is the pooled working set of one exact search over n variables:
// per-depth cofactor slots (full-width tables), per-depth remaining-variable
// slices, and the output permutation buffer filled top-down. Contexts are
// pooled per variable count so concurrent identifications do not contend.
type searchCtx struct {
	n    int
	perm []int // perm[:depth] holds the chosen variables so far
	rem0 []int // initial remaining set {0..n-1}
	neg  logic.TT
	fr   []searchFrame // frame d serves recursion depth d
	emit func(perm []int, l, u int) bool
}

// searchFrame holds one depth's scratch: up to four cofactors (the split
// search needs fs0, fs1, fp0, fp1) and the remaining-variable slice passed
// to the next depth.
type searchFrame struct {
	t    [4]logic.TT
	rest []int
}

var ctxPools [logic.MaxVars + 1]sync.Pool

func getCtx(n int) *searchCtx {
	if c, ok := ctxPools[n].Get().(*searchCtx); ok {
		return c
	}
	c := &searchCtx{
		n:    n,
		perm: make([]int, n),
		rem0: make([]int, n),
		neg:  logic.New(n),
		fr:   make([]searchFrame, n),
	}
	for i := range c.rem0 {
		c.rem0[i] = i
	}
	for d := range c.fr {
		for s := range c.fr[d].t {
			c.fr[d].t[s] = logic.New(n)
		}
		c.fr[d].rest = make([]int, 0, n)
	}
	return c
}

func putCtx(c *searchCtx) {
	c.emit = nil
	ctxPools[c.n].Put(c)
}

// enumerate calls emit for every (perm, L, U) realization of f's onset as an
// interval. emit returns false to stop. complement is recorded in the Spec.
func enumerate(f logic.TT, complement bool, emit func(Spec) bool) {
	n := f.Vars()
	cx := getCtx(n)
	cx.emit = func(perm []int, l, u int) bool {
		s := Spec{N: n, Perm: append([]int(nil), perm...), L: l, U: u, Complement: complement}
		return emit(s)
	}
	cx.interval(f, cx.rem0, 0, 0, 0)
	putCtx(cx)
}

// enumerateNot enumerates complemented realizations without allocating the
// negated table separately: the context's spare full-width slot holds it.
func enumerateNot(f logic.TT, emit func(Spec) bool) {
	n := f.Vars()
	cx := getCtx(n)
	f.NotInto(cx.neg)
	cx.emit = func(perm []int, l, u int) bool {
		s := Spec{N: n, Perm: append([]int(nil), perm...), L: l, U: u, Complement: true}
		return emit(s)
	}
	cx.interval(cx.neg, cx.rem0, 0, 0, 0)
	putCtx(cx)
}

// emitLeaf completes the permutation with the remaining variables in their
// current order and reports (L, U).
func (cx *searchCtx) emitLeaf(rem []int, depth, l, u int) bool {
	copy(cx.perm[depth:], rem)
	return cx.emit(cx.perm[:depth+len(rem)], l, u)
}

// interval enumerates orders making f's onset the interval [L,U]. rem maps
// current slots to original variable positions (0-based); depth is the
// number of variables already fixed; lAcc/uAcc carry the high bits of L and
// U chosen so far. Returns false when an emit aborted the whole search.
//
// f is a full-width table that depends only on variables in rem.
func (cx *searchCtx) interval(f logic.TT, rem []int, depth, lAcc, uAcc int) bool {
	k := len(rem)
	if f.IsConst(false) {
		return true // empty onset: not an interval
	}
	if f.IsConst(true) {
		return cx.emitLeaf(rem, depth, lAcc, uAcc+1<<k-1)
	}
	// k >= 1 here since non-constant.
	fr := &cx.fr[depth]
	f0, f1 := fr.t[0], fr.t[1]
	for p := 0; p < k; p++ {
		f.CofactorKeepInto(f0, rem[p]+1, false)
		f.CofactorKeepInto(f1, rem[p]+1, true)
		rest := restInto(fr.rest[:0], rem, p)
		half := 1 << (k - 1)
		cx.perm[depth] = rem[p]
		switch {
		case f1.IsConst(false):
			if !cx.interval(f0, rest, depth+1, lAcc, uAcc) {
				return false
			}
		case f0.IsConst(false):
			if !cx.interval(f1, rest, depth+1, lAcc+half, uAcc+half) {
				return false
			}
		default:
			if !cx.split(f0, f1, rest, depth+1, lAcc, uAcc+half) {
				return false
			}
		}
	}
	return true
}

// split enumerates common orders under which fs is a suffix set
// ({m : m >= L}) and fp a prefix set ({m : m <= U}) simultaneously.
// Preconditions: fs and fp are non-constant-0 functions over rem.
func (cx *searchCtx) split(fs, fp logic.TT, rem []int, depth, lAcc, uAcc int) bool {
	k := len(rem)
	if k == 0 {
		// Single minterm each; both non-0 means both are {0}: L=0, U=0.
		return cx.emitLeaf(nil, depth, lAcc, uAcc)
	}
	sConst1 := fs.IsConst(true)
	pConst1 := fp.IsConst(true)
	if sConst1 && pConst1 {
		return cx.emitLeaf(rem, depth, lAcc, uAcc+1<<k-1)
	}
	if sConst1 {
		// Only the prefix constraint remains; L's low bits are 0.
		return cx.prefix(fp, rem, depth, lAcc, uAcc)
	}
	if pConst1 {
		// Only the suffix constraint remains; U's low bits are all 1.
		return cx.suffix(fs, rem, depth, lAcc, uAcc+1<<k-1)
	}
	fr := &cx.fr[depth]
	fs0, fs1, fp0, fp1 := fr.t[0], fr.t[1], fr.t[2], fr.t[3]
	for p := 0; p < k; p++ {
		fs.CofactorKeepInto(fs0, rem[p]+1, false)
		fs.CofactorKeepInto(fs1, rem[p]+1, true)
		fp.CofactorKeepInto(fp0, rem[p]+1, false)
		fp.CofactorKeepInto(fp1, rem[p]+1, true)
		rest := restInto(fr.rest[:0], rem, p)
		half := 1 << (k - 1)
		cx.perm[depth] = rem[p]

		// Suffix side: either l-bit = 0 (fs1 = 1, fs0 suffix) or
		// l-bit = 1 (fs0 = 0, fs1 suffix).
		// Prefix side: either u-bit = 1 (fp0 = 1, fp1 prefix) or
		// u-bit = 0 (fp1 = 0, fp0 prefix).
		type branch struct {
			fsRest, fpRest logic.TT
			lAdd, uAdd     int
			okS, okP       bool
		}
		branches := [4]branch{
			{fs0, fp1, 0, half, fs1.IsConst(true), fp0.IsConst(true)},
			{fs0, fp0, 0, 0, fs1.IsConst(true), fp1.IsConst(false)},
			{fs1, fp1, half, half, fs0.IsConst(false), fp0.IsConst(true)},
			{fs1, fp0, half, 0, fs0.IsConst(false), fp1.IsConst(false)},
		}
		for _, b := range branches {
			if !b.okS || !b.okP {
				continue
			}
			if b.fsRest.IsConst(false) || b.fpRest.IsConst(false) {
				continue // suffix/prefix sets must stay non-empty
			}
			if !cx.split(b.fsRest, b.fpRest, rest, depth+1, lAcc+b.lAdd, uAcc+b.uAdd) {
				return false
			}
		}
	}
	return true
}

// suffix enumerates orders making f = {m : m >= L}, f not constant-0. The
// final U is already fixed by the caller.
func (cx *searchCtx) suffix(f logic.TT, rem []int, depth, lAcc, uFinal int) bool {
	k := len(rem)
	if f.IsConst(true) {
		return cx.emitLeaf(rem, depth, lAcc, uFinal)
	}
	if k == 0 || f.IsConst(false) {
		return true
	}
	fr := &cx.fr[depth]
	f0, f1 := fr.t[0], fr.t[1]
	for p := 0; p < k; p++ {
		f.CofactorKeepInto(f0, rem[p]+1, false)
		f.CofactorKeepInto(f1, rem[p]+1, true)
		rest := restInto(fr.rest[:0], rem, p)
		half := 1 << (k - 1)
		cx.perm[depth] = rem[p]
		if f1.IsConst(true) && !f0.IsConst(false) {
			if !cx.suffix(f0, rest, depth+1, lAcc, uFinal) {
				return false
			}
		}
		if f0.IsConst(false) && !f1.IsConst(false) {
			if !cx.suffix(f1, rest, depth+1, lAcc+half, uFinal) {
				return false
			}
		}
	}
	return true
}

// prefix enumerates orders making f = {m : m <= U}, f not constant-0. The
// final L is already fixed by the caller.
func (cx *searchCtx) prefix(f logic.TT, rem []int, depth, lFinal, uAcc int) bool {
	k := len(rem)
	if f.IsConst(true) {
		return cx.emitLeaf(rem, depth, lFinal, uAcc+1<<k-1)
	}
	if k == 0 || f.IsConst(false) {
		return true
	}
	fr := &cx.fr[depth]
	f0, f1 := fr.t[0], fr.t[1]
	for p := 0; p < k; p++ {
		f.CofactorKeepInto(f0, rem[p]+1, false)
		f.CofactorKeepInto(f1, rem[p]+1, true)
		rest := restInto(fr.rest[:0], rem, p)
		half := 1 << (k - 1)
		cx.perm[depth] = rem[p]
		if f0.IsConst(true) && !f1.IsConst(false) {
			if !cx.prefix(f1, rest, depth+1, lFinal, uAcc+half) {
				return false
			}
		}
		if f1.IsConst(false) && !f0.IsConst(false) {
			if !cx.prefix(f0, rest, depth+1, lFinal, uAcc) {
				return false
			}
		}
	}
	return true
}

// restInto writes rem minus slot p into dst (len 0, adequate capacity).
func restInto(dst, rem []int, p int) []int {
	dst = append(dst, rem[:p]...)
	return append(dst, rem[p+1:]...)
}

func restVars(vars []int, p int) []int {
	rest := make([]int, 0, len(vars)-1)
	rest = append(rest, vars[:p]...)
	return append(rest, vars[p+1:]...)
}

func prepend(v int, perm []int) []int {
	return append([]int{v}, perm...)
}

// IdentifySampling is the paper's experimental identification method: it
// tries up to maxPerms permutations of the inputs (the identity first, then
// random shuffles) and checks whether the onset or the offset minterms are
// consecutive under each. rng may be nil for a fixed default seed.
func IdentifySampling(f logic.TT, maxPerms int, rng *rand.Rand) (Spec, bool) {
	s, ok := identifySampling(f, maxPerms, rng)
	return s, countIdentify(ok)
}

func identifySampling(f logic.TT, maxPerms int, rng *rand.Rand) (Spec, bool) {
	if rng == nil {
		rng = rand.New(rand.NewSource(1995))
	}
	n := f.Vars()
	if f.IsConst(false) {
		return Spec{}, false
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	// Permuted and negated tables reuse two scratch slots across all trials.
	g, ng := logic.New(n), logic.New(n)
	for t := 0; t < maxPerms; t++ {
		if t > 0 {
			rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		}
		f.PermuteInto(g, perm)
		if l, u, ok := g.IsInterval(); ok {
			return Spec{N: n, Perm: append([]int(nil), perm...), L: l, U: u}, true
		}
		g.NotInto(ng)
		if l, u, ok := ng.IsInterval(); ok {
			return Spec{N: n, Perm: append([]int(nil), perm...), L: l, U: u, Complement: true}, true
		}
	}
	return Spec{}, false
}

// IsComparison reports whether f is a comparison function (onset form).
func IsComparison(f logic.TT) bool {
	_, ok := Identify(f)
	return ok
}
