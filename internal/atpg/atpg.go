// Package atpg implements a PODEM test pattern generator for single
// stuck-at faults on the 5-valued algebra {0, 1, X, D, D'}. Its primary
// client is the redundancy-removal pass (the paper applies [15] after
// Procedure 2); it also powers the atpg command-line tool.
//
// The engine is event-driven. Each call copies the fault's relevant cone
// (the transitive fanin of the site's fanout cone) into flat arrays, with
// local ids numbered in c.Topo() order. A decision push, flip or pop
// re-assigns one primary input, and only that input's fanout is
// re-evaluated, in local-id order, stopping wherever a value does not
// change. The set of D/D' nodes and the number of them driving primary
// outputs are updated as values change, so the test-found check, the
// X-path check and the D-frontier start from that set instead of
// rescanning the cone.
//
// Two invariants make the search identical, decision for decision, to the
// whole-cone engine it replaced, which reset every value and re-simulated
// the cone after each decision (kept as the reference in ref_test.go):
//
//   - Propagation equals full re-simulation. A node's value is a pure
//     function of the primary-input assignment, so re-evaluating exactly
//     the nodes with a changed fanin, in any topological order, leaves the
//     values a full simulation would compute. Undoing a decision needs no
//     trail: un-assigning the input recomputes the old values.
//   - The D-frontier tie-break follows c.Topo() rank. The objective
//     advances the frontier gate that comes first in c.Topo() (Kahn)
//     order, which is the one with the smallest local id. The frozen CSR's
//     (level, id) order is a different topological order: using it would
//     pick a different gate, and with it change every later decision.
package atpg

import (
	"math/bits"
	"sync"

	"compsynth/internal/circuit"
	"compsynth/internal/faults"
	"compsynth/internal/obs"
)

// PODEM metrics: totals per process plus the per-call backtrack
// distribution (hard faults show up in the p99).
var (
	mCalls      = obs.C("atpg.calls")
	mBacktracks = obs.C("atpg.backtracks")
	mRedundant  = obs.C("atpg.redundant_proofs")
	mAborted    = obs.C("atpg.aborts")
	hBacktracks = obs.H("atpg.backtracks_per_call")
)

// Value is a 5-valued signal: a (good, faulty) pair.
type Value int8

// The 5 values of the PODEM algebra.
const (
	X    Value = iota // unknown
	Zero              // 0/0
	One               // 1/1
	D                 // 1/0: good 1, faulty 0
	Dbar              // 0/1
)

func (v Value) String() string {
	switch v {
	case Zero:
		return "0"
	case One:
		return "1"
	case D:
		return "D"
	case Dbar:
		return "D'"
	}
	return "X"
}

// Status reports the outcome of test generation.
type Status int

// Outcomes of Generate.
const (
	Testable  Status = iota // a test was found
	Redundant               // proved untestable (search space exhausted)
	Aborted                 // backtrack limit hit
)

func (s Status) String() string {
	switch s {
	case Testable:
		return "testable"
	case Redundant:
		return "redundant"
	}
	return "aborted"
}

// Options bounds the search.
type Options struct {
	BacktrackLimit int // decisions undone before giving up (0 = default)

	// Tracer, when non-nil, records one span per Generate call (subject to
	// the tracer's span cap). Nil keeps the zero-overhead fast path.
	Tracer *obs.Tracer
}

// Result of a Generate call.
type Result struct {
	Status     Status
	Test       []bool // PI assignment when Status == Testable (X filled with 0)
	Backtracks int
}

// Generate runs PODEM for fault f on circuit c. When the search space is
// exhausted without finding a test, the fault is proved Redundant.
func Generate(c *circuit.Circuit, f faults.Fault, opt Options) Result {
	sp := opt.Tracer.StartSpan("atpg.generate")
	r := generate(c, f, opt)
	sp.SetStr("status", r.Status.String())
	sp.SetInt("backtracks", int64(r.Backtracks))
	sp.End()
	mCalls.Inc()
	mBacktracks.Add(int64(r.Backtracks))
	hBacktracks.Observe(float64(r.Backtracks))
	switch r.Status {
	case Redundant:
		mRedundant.Inc()
	case Aborted:
		mAborted.Inc()
	}
	return r
}

type decision struct {
	pi        int32 // local id of the primary input
	value     bool
	triedBoth bool
}

// sig is the engine's packed form of a Value: one bit per value each
// component can still take. Bits 0 and 1 say the good value can be 0 or
// 1, bits 2 and 3 the same for the faulty value. A known component has one
// bit set, an unknown one both; as in the algebra, a signal with an
// unknown component is X. In this form a gate is a few bitwise operations
// on its fanin signals, good and faulty circuit at once.
type sig uint8

const (
	sZero sig = 0b0101
	sOne  sig = 0b1010
	sD    sig = 0b0110
	sDbar sig = 0b1001
	sX    sig = 0b1111

	can0 sig = 0b0101 // the "can be 0" bits of both components
	can1 sig = 0b1010 // the "can be 1" bits
	good sig = 0b0011 // the good component's bits
)

// post[r] maps a computed signal r to the algebra: X when a component is
// unknown, else r itself. post[16+r] does the same for r inverted, which
// swaps the bits of each component.
var post = func() (t [32]sig) {
	for r := range sig(16) {
		inv := r&can0<<1 | r&can1>>1
		for k, s := range []sig{r, inv} {
			if s&3 == 3 || s>>2 == 3 {
				s = sX
			}
			t[16*k+int(r)] = s
		}
	}
	return t
}()

// goodVal returns the fault-free component: 0, 1, or -1 for unknown.
func (s sig) goodVal() int {
	switch s & good {
	case 1:
		return 0
	case 2:
		return 1
	}
	return -1
}

// isD reports whether s carries a fault effect (D or D').
func (s sig) isD() bool { return s == sD || s == sDbar }

// op is a node's evaluation rule. For a gate, bit 0 selects OR over AND
// and bit 1 inverts the result.
type op uint8

const (
	opAnd    op = 0 // AND, BUF
	opOr     op = 1
	opNand   op = 2 // NAND, NOT
	opNor    op = 3
	opXor    op = 4
	opXnor   op = 6
	opSource op = 8 // input, constant or fanin-less gate: the value is assign
)

func opOf(t circuit.GateType, fanin int) op {
	if fanin == 0 {
		return opSource
	}
	switch t {
	case circuit.Nand, circuit.Not:
		return opNand
	case circuit.Or:
		return opOr
	case circuit.Nor:
		return opNor
	case circuit.Xor:
		return opXor
	case circuit.Xnor:
		return opXnor
	}
	return opAnd // And, Buf
}

// engine is the search state of one call. Its arrays are pooled: a call
// grows them to the circuit and cone it needs and leaves them for the
// next, so a redundancy-removal round allocates them once, not per fault.
//
// The k nodes of the relevant cone get local ids 0..k-1 in c.Topo() order;
// every array but mark and loc is indexed by local id.
type engine struct {
	// Indexed by circuit node ID.
	mark  []uint32 // == epoch: the node is in this call's cone
	loc   []int32  // node ID -> local id, valid where marked
	epoch uint32

	// The cone as flat arrays. Fanout lists hold only consumers inside the
	// cone, which for every node the fault effect can reach is all of them.
	kind      []circuit.GateType
	op        []op
	finStart  []int32
	finEdge   []int32
	foutStart []int32
	foutEdge  []int32
	piPos     []int32 // position in c.Inputs, -1 if not a primary input
	isPO      []bool

	// Values. val has one extra slot, k, read by the faulty pin of a
	// branch fault: the driver's value with the faulty component stuck.
	val    []sig
	assign []sig // sources' values: sX, sZero or sOne for an input

	// Nodes scheduled for re-evaluation, one bit per local id.
	dirty []uint64

	dset []int32 // nodes valued D or D'
	dpos []int32 // index in dset, -1 if absent
	poD  int     // D/D' nodes that drive a primary output

	seen      []uint32 // X-path walk marks (== seenEpoch)
	seenEpoch uint32
	work      []int32 // DFS stack
	stack     []decision

	// The fault, in local ids.
	site, driver int32
	stem         int32 // site for a stem fault, else -1
	branch       int32 // site for a branch fault, else -1
	pin          int   // faulty pin of a branch fault
	stuckBad     sig   // the faulty component's bit for the stuck value
	want         bool  // activation value (opposite of the stuck value)
	limit, backs int
}

var enginePool = sync.Pool{New: func() any { return new(engine) }}

func generate(c *circuit.Circuit, f faults.Fault, opt Options) Result {
	limit := opt.BacktrackLimit
	if limit <= 0 {
		limit = 20000
	}
	e := enginePool.Get().(*engine)
	defer enginePool.Put(e)
	e.setup(c, f, limit)

	e.stack = e.stack[:0]
	for {
		if e.poD > 0 {
			test := make([]bool, len(c.Inputs))
			for _, d := range e.stack {
				test[e.piPos[d.pi]] = d.value
			}
			return Result{Status: Testable, Test: test, Backtracks: e.backs}
		}
		advanced := false
		if e.feasible() {
			if obj, objVal, ok := e.objective(); ok {
				if pi, piVal, ok2 := e.backtrace(obj, objVal); ok2 {
					e.stack = append(e.stack, decision{pi: pi, value: piVal})
					e.set(pi, piVal)
					advanced = true
				}
			}
		}
		if !advanced {
			// Backtrack.
			for {
				if len(e.stack) == 0 {
					return Result{Status: Redundant, Backtracks: e.backs}
				}
				top := &e.stack[len(e.stack)-1]
				if !top.triedBoth {
					top.triedBoth = true
					top.value = !top.value
					e.backs++
					if e.backs > e.limit {
						return Result{Status: Aborted, Backtracks: e.backs}
					}
					e.set(top.pi, top.value)
					break
				}
				e.assign[top.pi] = sX
				e.schedule(top.pi)
				e.stack = e.stack[:len(e.stack)-1]
			}
		}
		e.propagate()
	}
}

// setup copies the relevant cone of fault f into the local arrays and
// simulates it with every primary input at X. The cone is the transitive
// fanin of every node in the fanout cone of the site (including the POs
// the effect can reach): only its nodes can matter for detecting f.
func (e *engine) setup(c *circuit.Circuit, f faults.Fault, limit int) {
	if n := len(c.Nodes); len(e.mark) < n {
		e.mark = make([]uint32, n)
		e.loc = make([]int32, n)
	}
	e.epoch++
	if e.epoch == 0 {
		clear(e.mark)
		e.epoch = 1
	}
	ep, mark := e.epoch, e.mark

	// Fanout cone of the site, then its transitive fanin.
	work := append(e.work[:0], int32(f.Node))
	mark[f.Node] = ep
	for i := 0; i < len(work); i++ {
		for _, o := range c.Fanouts(int(work[i])) {
			if mark[o] != ep {
				mark[o] = ep
				work = append(work, int32(o))
			}
		}
	}
	for i := 0; i < len(work); i++ {
		for _, in := range c.Nodes[work[i]].Fanin {
			if mark[in] != ep {
				mark[in] = ep
				work = append(work, int32(in))
			}
		}
	}

	// Local ids in c.Topo() order. The DFS is done with work, so its
	// storage holds the local -> node ID map.
	nodes := work[:0]
	e.kind = e.kind[:0]
	for _, id := range c.Topo() {
		if mark[id] == ep {
			e.loc[id] = int32(len(nodes))
			nodes = append(nodes, int32(id))
			e.kind = append(e.kind, c.Nodes[id].Type)
		}
	}
	e.work = nodes[:0]
	k := len(nodes)

	// Fanin lists and fanout counts, then the fanout lists.
	e.op = grow(e.op, k)
	e.finStart = grow(e.finStart, k+1)
	e.finEdge = e.finEdge[:0]
	e.foutStart = grow(e.foutStart, k+1)
	clear(e.foutStart)
	for i, id := range nodes {
		fanin := c.Nodes[id].Fanin
		e.op[i] = opOf(e.kind[i], len(fanin))
		e.finStart[i] = int32(len(e.finEdge))
		for _, in := range fanin {
			j := e.loc[in]
			e.finEdge = append(e.finEdge, j)
			e.foutStart[j+1]++
		}
	}
	e.finStart[k] = int32(len(e.finEdge))
	for i := 0; i < k; i++ {
		e.foutStart[i+1] += e.foutStart[i]
	}
	e.foutEdge = grow(e.foutEdge, len(e.finEdge))
	e.dpos = grow(e.dpos, k)
	fill := e.dpos // fanout fill cursors; dpos is reset below
	copy(fill, e.foutStart[:k])
	for i := 0; i < k; i++ {
		for _, j := range e.finEdge[e.finStart[i]:e.finStart[i+1]] {
			e.foutEdge[fill[j]] = int32(i)
			fill[j]++
		}
	}

	e.dirty = grow(e.dirty, (k+63)/64)
	clear(e.dirty) // a call that returns mid-backtrack leaves bits set

	e.piPos = grow(e.piPos, k)
	for i := range e.piPos {
		e.piPos[i] = -1
	}
	for j, in := range c.Inputs {
		if mark[in] == ep && e.piPos[e.loc[in]] < 0 {
			e.piPos[e.loc[in]] = int32(j)
		}
	}
	e.isPO = grow(e.isPO, k)
	clear(e.isPO)
	for _, o := range c.Outputs {
		if mark[o] == ep {
			e.isPO[e.loc[o]] = true
		}
	}

	// The fault.
	e.site = e.loc[f.Node]
	e.driver, e.stem, e.branch, e.pin = e.site, e.site, -1, f.Pin
	e.stuckBad = 0b0100
	if f.Stuck {
		e.stuckBad = 0b1000
	}
	e.want = !f.Stuck
	e.limit, e.backs = limit, 0
	if f.Pin >= 0 {
		e.driver = e.loc[c.Nodes[f.Node].Fanin[f.Pin]]
		e.stem, e.branch = -1, e.site
		// The faulty pin reads slot k. Only evaluation follows this edge:
		// the driver's fanout list above still names the site, objective
		// skips the faulty pin, and backtrace never reaches the site.
		e.finEdge[e.finStart[e.site]+int32(f.Pin)] = int32(k)
	}

	// Simulate with every input at X.
	e.val = grow(e.val, k+1)
	e.assign = grow(e.assign, k)
	for i := range e.val {
		e.val[i] = sX
	}
	for i, t := range e.kind[:k] {
		switch t {
		case circuit.Const0:
			e.assign[i] = sZero
		case circuit.Const1:
			e.assign[i] = sOne
		default:
			e.assign[i] = sX
		}
	}
	e.val[k] = post[sX&good|e.stuckBad]
	e.seen = grow(e.seen, k)
	clear(e.seen)
	e.seenEpoch = 0
	for i := range e.dpos {
		e.dpos[i] = -1
	}
	e.dset = e.dset[:0]
	e.poD = 0
	for i := 0; i < k; i++ {
		e.update(int32(i), e.eval(int32(i)))
	}
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// set assigns primary input pi and schedules its re-evaluation.
func (e *engine) set(pi int32, v bool) {
	e.assign[pi] = sZero
	if v {
		e.assign[pi] = sOne
	}
	e.schedule(pi)
}

func (e *engine) schedule(i int32) {
	e.dirty[i>>6] |= 1 << (i & 63)
}

// propagate re-evaluates the scheduled nodes in local-id order. A node
// whose value changes schedules its consumers, which have larger ids (the
// ids follow a topological order), so every node is evaluated once, after
// all of its changed fanins.
func (e *engine) propagate() {
	for w := range e.dirty {
		for e.dirty[w] != 0 {
			x := e.dirty[w]
			e.dirty[w] = x & (x - 1)
			i := int32(w<<6 | bits.TrailingZeros64(x))
			if v := e.eval(i); v != e.val[i] {
				e.update(i, v)
				for _, o := range e.foutEdge[e.foutStart[i]:e.foutStart[i+1]] {
					e.schedule(o)
				}
			}
		}
	}
}

// update stores v as node i's value, keeping the D/D' set, the PO count
// and the faulty-pin slot in step.
func (e *engine) update(i int32, v sig) {
	was := e.val[i].isD()
	e.val[i] = v
	if i == e.driver && e.branch >= 0 {
		e.val[len(e.val)-1] = post[v&good|e.stuckBad]
	}
	switch now := v.isD(); {
	case now && !was:
		e.dpos[i] = int32(len(e.dset))
		e.dset = append(e.dset, i)
		if e.isPO[i] {
			e.poD++
		}
	case was && !now:
		p, last := e.dpos[i], e.dset[len(e.dset)-1]
		e.dset[p], e.dpos[last] = last, p
		e.dset = e.dset[:len(e.dset)-1]
		e.dpos[i] = -1
		if e.isPO[i] {
			e.poD--
		}
	}
}

// eval computes node i's signal from its fanin signals (a source's from
// its assignment), with a stem fault applied at the site.
func (e *engine) eval(i int32) sig {
	o := e.op[i]
	var v sig
	switch {
	case o == opSource:
		v = e.assign[i]
	case o < opXor:
		// AND: the result can be 0 if any input can, 1 if all can; OR the
		// other way round.
		any, all := sig(0), sX
		for _, f := range e.fanin(i) {
			any |= e.val[f]
			all &= e.val[f]
		}
		m := can0 << (o & 1)
		v = post[sig(o&2)<<3|any&m|all&^m]
	default:
		// Per component, the parity can be 0 when both operands can be
		// equal and 1 when they can differ.
		v = sZero
		for _, f := range e.fanin(i) {
			w := e.val[f]
			v0, v1, w0, w1 := v&can0, v&can1>>1, w&can0, w&can1>>1
			v = v0&w0 | v1&w1 | (v0&w1|v1&w0)<<1
		}
		v = post[sig(o&2)<<3|v]
	}
	if i == e.stem {
		v = post[v&good|e.stuckBad]
	}
	return v
}

// feasible reports whether the current assignment can still be extended to
// a test: the fault must remain activatable and the effect propagatable.
func (e *engine) feasible() bool {
	g := e.val[e.driver].goodVal()
	want := 0
	if e.want {
		want = 1
	}
	if g >= 0 && g != want {
		return false // activation impossible
	}
	if g < 0 {
		return true // activation still open
	}
	// Activated at the driver; for branch faults the effect must survive
	// (or still be undecided) at the consuming gate.
	if e.branch >= 0 {
		switch e.val[e.site] {
		case sX:
			return true
		case sD, sDbar:
			// fall through to the propagation check
		default:
			return false // masked at the gate
		}
	}
	if e.poD > 0 {
		return true
	}
	return e.xpath()
}

// xpath reports whether some fault effect (D/D') can still reach a primary
// output through X-valued lines — the classic X-path check, which prunes
// hopeless branches long before the D-frontier empties.
func (e *engine) xpath() bool {
	e.seenEpoch++
	if e.seenEpoch == 0 {
		clear(e.seen)
		e.seenEpoch = 1
	}
	ep := e.seenEpoch
	for _, d := range e.dset {
		if e.isPO[d] {
			return true
		}
	}
	work := append(e.work[:0], e.dset...)
	found := false
	for len(work) > 0 && !found {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		for _, o := range e.foutEdge[e.foutStart[i]:e.foutStart[i+1]] {
			if e.seen[o] == ep || e.val[o] != sX {
				continue
			}
			if e.isPO[o] {
				found = true
				break
			}
			e.seen[o] = ep
			work = append(work, o)
		}
	}
	e.work = work[:0]
	return found
}

// frontier returns the D-frontier gate first in c.Topo() order — the
// X-valued consumer of a D/D' node with the smallest local id — or -1.
func (e *engine) frontier() int32 {
	best := int32(-1)
	for _, d := range e.dset {
		for _, o := range e.foutEdge[e.foutStart[d]:e.foutStart[d+1]] {
			if e.val[o] == sX && (best < 0 || o < best) {
				best = o
			}
		}
	}
	return best
}

// objective returns the next (node, value) goal: activate the fault first,
// then advance the D-frontier.
func (e *engine) objective() (int32, bool, bool) {
	if e.val[e.driver].goodVal() < 0 {
		return e.driver, e.want, true
	}
	// Activated. For a still-undecided branch fault, unblock the consuming
	// gate by setting an X side input to its non-controlling value.
	if e.branch >= 0 && e.val[e.site] == sX {
		ctl, has := e.kind[e.site].ControllingValue()
		for pin, f := range e.fanin(e.site) {
			if pin != e.pin && e.val[f] == sX {
				if has {
					return f, !ctl, true
				}
				return f, false, true // parity gate: either value decides
			}
		}
		return 0, false, false
	}
	g := e.frontier()
	if g < 0 {
		return 0, false, false
	}
	ctl, has := e.kind[g].ControllingValue()
	for _, f := range e.fanin(g) {
		if e.val[f] == sX {
			if has {
				return f, !ctl, true
			}
			return f, false, true
		}
	}
	return 0, false, false
}

func (e *engine) fanin(i int32) []int32 {
	return e.finEdge[e.finStart[i]:e.finStart[i+1]]
}

// backtrace maps an objective to an unassigned primary input and a value,
// walking backward through X-valued lines.
func (e *engine) backtrace(node int32, want bool) (int32, bool, bool) {
	for {
		switch t := e.kind[node]; t {
		case circuit.Input:
			if e.val[node] != sX || e.piPos[node] < 0 {
				return 0, false, false
			}
			return node, want, true
		case circuit.Const0, circuit.Const1:
			return 0, false, false
		case circuit.Not:
			want = !want
			node = e.fanin(node)[0]
		case circuit.Buf:
			node = e.fanin(node)[0]
		default:
			if t.Inverting() {
				want = !want
			}
			picked := int32(-1)
			for _, f := range e.fanin(node) {
				if e.val[f] == sX {
					picked = f
					break
				}
			}
			if picked < 0 {
				return 0, false, false
			}
			// For AND (after deinversion) wanting 1, every input must be 1;
			// wanting 0, a single 0 suffices — in both cases the picked X
			// input is driven toward `want`. Same for OR; parity gates take
			// the value as-is.
			node = picked
		}
	}
}
