// Package resynth implements the paper's circuit optimization procedures:
// Procedure 2 (reduce the equivalent-2-input gate count, ties broken by the
// path count), Procedure 3 (reduce the path count), and the combined measure
// of Section 4.3. Each procedure repeatedly sweeps the circuit from the
// primary outputs toward the inputs, replacing subcircuits that implement
// comparison functions by comparison units, until a fixpoint.
//
// The sweep is serial, as in the paper. It evaluates each marked candidate
// once, in topological order, right before deciding on it, so every truth
// table is extracted from the circuit as it stands at that moment. The
// identification caches are keyed purely by the candidate's function and
// persist across passes. Sampling-mode identification seeds its RNG per
// truth table (derived from Options.Seed), never from a shared stream, so it
// is independent of visit order.
//
// Incremental pass state: each pass needs K-feasible cuts, path labels,
// levels and (in SDC mode) exhaustive-simulation values for every node. A
// replacement only invalidates the transitive fanout cone of the rewired
// nodes — every one of these quantities is a pure function of a node's
// fanin cone — so between passes the optimizer recomputes exactly the
// dirty cone reported by the circuit's edit journal instead of rebuilding
// from scratch. The sweep order is the canonical topological order
// (level, id), which is identical whether the state was refreshed
// incrementally or rebuilt in full, so both paths produce bit-identical
// circuits (TestIncrementalMatchesFull pins this).
package resynth

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"compsynth/internal/circuit"
	"compsynth/internal/compare"
	"compsynth/internal/ledger"
	"compsynth/internal/logic"
	"compsynth/internal/obs"
	"compsynth/internal/obs/dtrace"
	"compsynth/internal/par"
	"compsynth/internal/paths"
	"compsynth/internal/simulate"
	"compsynth/internal/subckt"
)

// Pipeline metrics (process-wide; single atomic adds in the hot loops).
var (
	mCandidates   = obs.C("resynth.candidates_examined")
	mReplacements = obs.C("resynth.replacements_accepted")
	mPasses       = obs.C("resynth.passes")
	mCacheHits    = obs.C("resynth.identify_cache_hits")
	mDirty        = obs.C("resynth.dirty_nodes")
	hCandInputs   = obs.H("resynth.candidate_inputs")
	gPass         = obs.G("resynth.pass")
)

// Objective selects the optimization target.
type Objective int

// Objectives.
const (
	MinGates Objective = iota // Procedure 2
	MinPaths                  // Procedure 3
	Combined                  // Section 4.3: gates and paths together
)

func (o Objective) String() string {
	switch o {
	case MinGates:
		return "min-gates"
	case MinPaths:
		return "min-paths"
	case Combined:
		return "combined"
	}
	return "?"
}

// Options configures the optimizer.
type Options struct {
	K             int       // subcircuit input limit (paper: 5 or 6)
	Objective     Objective // which procedure to run
	MaxCandidates int       // candidate subcircuits per gate output
	MaxSpecs      int       // unit realizations considered per function
	MaxPasses     int       // fixpoint iteration cap
	Verify        bool      // check equivalence after every pass
	Check         bool      // validate IR invariants after every pass (circuit.Check)
	Merge         bool      // merge same-type chain gates (Figure 4)

	// Workers is ignored: the sweep is serial. The field is kept so that
	// existing callers still compile.
	Workers int

	// UseSampling switches identification to the paper's experimental
	// method: up to SamplingPerms random permutations, onset and offset.
	UseSampling   bool
	SamplingPerms int

	// MaxUnits > 1 enables the paper's Section 6 extension: when no single
	// comparison unit realizes a candidate function, try an OR of up to
	// MaxUnits units over a common permutation (MultiPerms tried).
	MaxUnits   int
	MultiPerms int

	// UseSDC enables the paper's Section 6 extension (1): input
	// combinations that can never occur at a candidate's inputs are
	// treated as don't-cares during identification. Exact reachability is
	// computed by exhaustive simulation, so the mode only engages on
	// circuits with at most SDCMaxInputs primary inputs (default 14).
	UseSDC       bool
	SDCMaxInputs int

	// CombinedGateWeight scales gate savings against path savings for the
	// Combined objective: measure = pathSaving + W * gateSaving.
	CombinedGateWeight float64

	// Certify records per-replacement equivalence evidence — the extracted
	// truth table, the care set when don't-cares were used, and the chosen
	// realization — into Result.Evidence, for the run certificate (-cert).
	// Off (the default), the replacement path allocates nothing extra.
	Certify bool

	Seed int64

	// Tracer records per-pass spans when non-nil; nil (the default) keeps
	// the zero-overhead fast path.
	Tracer *obs.Tracer

	// Dtrace streams one decision record per gate and per candidate the
	// sweep considers (see internal/obs/dtrace). Records are emitted in
	// the sweep's order and carry no timing or cache provenance, so the
	// stream is byte-identical for every run of the same input and options.
	// The nil tracer (the default) no-ops without allocating.
	Dtrace *dtrace.Tracer

	// forceFull disables the incremental between-pass refresh, rebuilding
	// every pass's derived state from scratch. Test-only: the determinism
	// test proves incremental and full runs are bit-identical.
	forceFull bool
}

// DefaultOptions returns the paper's experimental configuration (K=5).
func DefaultOptions() Options {
	return Options{
		K:             5,
		Objective:     MinGates,
		MaxCandidates: 32,
		MaxSpecs:      8,
		MaxPasses:     16,
		Verify:        true,
		Merge:         true,
		SamplingPerms: 200,
		Seed:          1995,

		MaxUnits:   1,
		MultiPerms: 60,

		SDCMaxInputs: 14,

		CombinedGateWeight: 4,
	}
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

	// Evidence holds one entry per accepted replacement when
	// Options.Certify is set (nil otherwise). It is deliberately excluded
	// from MarshalJSON: reports summarize, certificates carry the proof.
	Evidence []ledger.Evidence
}

func (r *Result) String() string {
	return fmt.Sprintf("passes=%d repl=%d gates %d->%d paths %d->%d",
		r.Passes, r.Replacements, r.GatesBefore, r.GatesAfter, r.PathsBefore, r.PathsAfter)
}

// MarshalJSON serializes the run statistics (the circuit itself is omitted;
// reports carry circuit summaries separately). Field names mirror String().
func (r *Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Passes       int    `json:"passes"`
		Replacements int    `json:"replacements"`
		GatesBefore  int    `json:"gates_before"`
		GatesAfter   int    `json:"gates_after"`
		PathsBefore  uint64 `json:"paths_before"`
		PathsAfter   uint64 `json:"paths_after"`
	}{r.Passes, r.Replacements, r.GatesBefore, r.GatesAfter, r.PathsBefore, r.PathsAfter})
}

// Optimize runs the selected procedure on a copy of c until no further
// improvement. The input circuit is not modified.
func Optimize(c *circuit.Circuit, opt Options) (*Result, error) {
	if opt.K <= 0 || opt.MaxPasses <= 0 {
		return nil, fmt.Errorf("resynth: invalid options K=%d passes=%d", opt.K, opt.MaxPasses)
	}
	sp := opt.Tracer.StartSpan("resynth.optimize")
	defer sp.End()
	sp.SetStr("objective", opt.Objective.String())
	sp.SetInt("k", int64(opt.K))
	poNames := c.PONames()
	work := c.Clone()
	work.Simplify()
	work, _ = work.Compact()
	res := &Result{
		GatesBefore: c.Equiv2Count(),
		PathsBefore: paths.MustCount(c),
	}
	o := &optimizer{
		opt:        opt,
		dt:         opt.Dtrace,
		cache:      par.NewCache[logic.Key, cachedSpec](),
		multiCache: par.NewCache[logic.Key, cachedMulti](),
		dcCache:    par.NewCache[dcKey, cachedSpec](),
		allCache:   par.NewCache[logic.Key, []compare.Spec](),
	}
	// The journal records which nodes each pass's rewrites and the
	// follow-up Simplify touch, so the next pass refreshes only that cone.
	// Node IDs therefore must stay stable across passes: compaction happens
	// once, after the fixpoint.
	work.BeginJournal()
	for pass := 0; pass < opt.MaxPasses; pass++ {
		o.passNo = pass + 1
		gPass.Set(int64(pass + 1))
		obs.EmitProgress("resynth.pass", int64(pass+1), int64(opt.MaxPasses))
		psp := opt.Tracer.StartSpan("resynth.pass")
		psp.SetInt("pass", int64(pass))
		var before *circuit.Circuit
		if opt.Verify {
			before = work.Clone()
		}
		n := o.pass(work)
		mPasses.Inc()
		res.Passes++
		res.Replacements += n
		work.Simplify()
		if opt.Verify {
			vsp := opt.Tracer.StartSpan("resynth.verify")
			ok := simulate.EquivalentRandom(before, work, 32, 14, opt.Seed+int64(pass))
			vsp.End()
			if !ok {
				psp.End()
				return nil, fmt.Errorf("resynth: pass %d broke equivalence", pass)
			}
		}
		if opt.Check {
			csp := opt.Tracer.StartSpan("resynth.check")
			// Mid-fixpoint the circuit carries dead tombstones and gates
			// that later passes may still rewire, so unreachable live
			// nodes are tolerated here; the post-Compact check below is
			// strict.
			err := circuit.CheckWith(work, circuit.CheckOptions{AllowUnreachable: true})
			if err == nil {
				err = circuit.CheckComparisonUnits(work)
			}
			csp.End()
			if err != nil {
				psp.End()
				return nil, fmt.Errorf("resynth: pass %d: %w", pass, err)
			}
		}
		psp.SetInt("replacements", int64(n))
		psp.End()
		if n == 0 {
			break
		}
	}
	work.EndJournal()
	work, _ = work.Compact()
	work.PreservePONames(poNames)
	if opt.Check {
		if err := circuit.Check(work); err != nil {
			return nil, fmt.Errorf("resynth: final circuit: %w", err)
		}
		if err := circuit.CheckComparisonUnits(work); err != nil {
			return nil, fmt.Errorf("resynth: final circuit: %w", err)
		}
	}
	res.Circuit = work
	res.GatesAfter = work.Equiv2Count()
	res.PathsAfter = paths.MustCount(work)
	res.Evidence = o.evidence
	return res, nil
}

type cachedSpec struct {
	spec compare.Spec
	ok   bool
}

type cachedMulti struct {
	spec compare.MultiSpec
	ok   bool
}

// dcKey identifies one don't-care identification query: the function and
// the care set.
type dcKey struct {
	f, care logic.Key
}

// careKey is the exact, ordered list of host nodes a care set is projected
// onto. The order matters: it fixes the care table's variable order.
type careKey struct {
	n   int
	ids [logic.MaxVars]int32
}

// optimizer carries the per-run state. The identification caches persist
// across passes (they are keyed by the candidate's function, which is
// circuit-independent); every cached value is a pure function of its key.
type optimizer struct {
	opt        Options
	dt         *dtrace.Tracer // decision-trace sink; nil = off
	cache      *par.Cache[logic.Key, cachedSpec]
	multiCache *par.Cache[logic.Key, cachedMulti]
	dcCache    *par.Cache[dcKey, cachedSpec]
	allCache   *par.Cache[logic.Key, []compare.Spec]
	db         *subckt.CutDB

	// Incremental per-pass state. Every field below is a per-node pure
	// function of that node's fanin cone, so after a pass only the dirty
	// cone (journal-touched nodes plus their transitive fanout) needs
	// recomputation; everything else is reused verbatim. stateOK gates the
	// first pass onto the full-rebuild path.
	stateOK bool
	levels  []int
	topo    []int // live nodes in canonical topological order: (level, id)
	np      []uint64
	npOver  []bool // per-node label saturation, so npOK survives node death
	npOK    bool

	// SDC state: per-node value over all 2^nPI patterns (nil when the mode
	// is off or out of range).
	valbits   [][]uint64
	nPI       int
	careCache *par.Cache[careKey, logic.TT]

	scratch []int // reused worklist for the dirty-cone closure

	// Certificate evidence, appended by apply when Options.Certify is set.
	passNo   int
	evidence []ledger.Evidence
}

// rngFor derives the RNG for one sampling-style identification call.
// Seeding from (Options.Seed, truth-table key) makes the draw a pure
// function of the function being identified — independent of gate visit
// order and of the interleaving of other identifications (a shared RNG
// stream would couple every draw to the sweep's history).
func (o *optimizer) rngFor(k logic.Key) *rand.Rand {
	return rand.New(rand.NewSource(k.Seed(o.opt.Seed)))
}

// pass performs one output-to-input sweep and returns the replacement count.
func (o *optimizer) pass(c *circuit.Circuit) int {
	touched := c.TakeJournal()
	csp := o.opt.Tracer.StartSpan("resynth.cuts")
	if !o.stateOK || touched == nil || o.opt.forceFull {
		o.rebuildFull(c)
	} else {
		o.refresh(c, touched)
	}
	csp.End()
	topo := o.topo
	marked := make([]bool, len(c.Nodes))
	mark := func(id int) {
		for id >= len(marked) {
			marked = append(marked, false)
		}
		marked[id] = true
	}
	for _, out := range c.Outputs {
		mark(out)
	}
	replaced := 0
	for i := len(topo) - 1; i >= 0; i-- {
		g := topo[i]
		if !c.Alive(g) {
			o.traceGate(c, g, dtrace.SkippedDead, nil)
			continue
		}
		if !marked[g] {
			o.traceGate(c, g, dtrace.SkippedUnmarked, nil)
			continue
		}
		nd := c.Nodes[g]
		if nd.Type == circuit.Input || nd.Type == circuit.Const0 || nd.Type == circuit.Const1 {
			o.traceGate(c, g, dtrace.SkippedNonGate, nil)
			continue
		}
		best := o.evalGate(c, g)
		// Cumulative candidate progress for the flight recorder (the sink
		// throttles; the off path is one atomic load).
		obs.EmitProgress("resynth.candidates", mCandidates.Value(), 0)
		if best != nil {
			// Traced before apply, while g and its path label are live.
			o.traceGate(c, g, dtrace.Replaced, best)
			o.apply(c, best)
			mReplacements.Inc()
			replaced++
			for _, in := range best.sub.Inputs {
				mark(in)
			}
		} else {
			o.traceGate(c, g, dtrace.Kept, nil)
			for _, f := range nd.Fanin {
				mark(f)
			}
		}
	}
	return replaced
}

// traceGate emits the per-gate summary decision record: how the sweep
// disposed of node g this pass. With tracing off (o.dt == nil) it returns
// before building the record, keeping the sweep allocation-free.
func (o *optimizer) traceGate(c *circuit.Circuit, g int, outcome dtrace.Reason, best *candidate) {
	if o.dt == nil {
		return
	}
	rec := dtrace.Record{
		Pass:    o.passNo,
		Kind:    "gate",
		Node:    g,
		Name:    c.Nodes[g].Name,
		Outcome: outcome,
	}
	if best != nil {
		rec.Cut = best.sub.Inputs
		rec.Width = len(best.sub.Inputs)
		rec.GateSave = best.gateSave
		rec.PathsBefore = o.np[g]
		rec.PathsAfter = best.pathsOnG
		rec.UsedDC = best.hasCare
		o.setSpec(&rec, best.spec)
	}
	o.dt.Emit(rec)
}

// setSpec fills a record's realization fields from the chosen spec.
func (o *optimizer) setSpec(rec *dtrace.Record, spec compare.Realization) {
	_, rec.MultiUnit = spec.(compare.MultiSpec)
	if s, ok := spec.(fmt.Stringer); ok {
		rec.Spec = s.String()
	}
}

// candRec appends one candidate-level decision record for sub (a subcircuit
// rooted at g) to recs. Callers guard on o.dt != nil, so the off path never
// reaches here.
func (o *optimizer) candRec(recs []dtrace.Record, c *circuit.Circuit, g int, sub *subckt.Subcircuit, oldPaths uint64, outcome dtrace.Reason) []dtrace.Record {
	return append(recs, dtrace.Record{
		Pass:        o.passNo,
		Kind:        "cand",
		Node:        g,
		Name:        c.Nodes[g].Name,
		Outcome:     outcome,
		Cut:         sub.Inputs,
		Width:       len(sub.Inputs),
		PathsBefore: oldPaths,
	})
}

// sortTopo orders o.topo by (level, id). Levels increase along every edge,
// so this is a topological order — and unlike a worklist order it is a pure
// function of the circuit, identical whether levels were computed from
// scratch or refreshed incrementally.
func (o *optimizer) sortTopo() {
	lv := o.levels
	t := o.topo
	sort.Slice(t, func(i, j int) bool {
		if lv[t[i]] != lv[t[j]] {
			return lv[t[i]] < lv[t[j]]
		}
		return t[i] < t[j]
	})
}

func (o *optimizer) collectLive(c *circuit.Circuit) {
	o.topo = o.topo[:0]
	for id := 0; id < len(c.Nodes); id++ {
		if c.Alive(id) {
			o.topo = append(o.topo, id)
		}
	}
}

// rebuildFull computes every piece of per-pass state from scratch.
func (o *optimizer) rebuildFull(c *circuit.Circuit) {
	n := len(c.Nodes)
	o.levels = append(o.levels[:0], c.Levels()...)
	o.collectLive(c)
	o.sortTopo()
	o.db = subckt.NewCutDB(c, o.opt.K, o.opt.MaxCandidates)
	o.np = growU64(o.np[:0], n)
	o.npOver = growBool(o.npOver[:0], n)
	for _, id := range o.topo {
		o.db.ComputeNode(c, id)
		v, ok := paths.LabelNode(c, o.np, id)
		o.np[id] = v
		o.npOver[id] = !ok
	}
	o.recomputeNpOK()
	o.rebuildSDC(c)
	o.stateOK = true
}

// refresh recomputes state for the dirty cone only: the journal-touched
// nodes plus their transitive fanout. Everything outside the cone is a pure
// function of an unchanged fanin cone, so its stored value already equals
// what a full rebuild would produce.
func (o *optimizer) refresh(c *circuit.Circuit, touched map[int]bool) {
	c.RebuildFanouts()
	n := len(c.Nodes)
	o.levels = growInts(o.levels, n)
	o.np = growU64(o.np, n)
	o.npOver = growBool(o.npOver, n)
	if o.valbits != nil {
		for len(o.valbits) < n {
			o.valbits = append(o.valbits, nil)
		}
	}

	// Dirty closure over fanouts.
	dirty := make([]bool, n)
	stack := o.scratch[:0]
	//lint:ordered stack seeds a reachability closure; the dirty[] fixpoint is the same set for any visit order
	for id := range touched {
		if id < n && !dirty[id] {
			stack = append(stack, id)
		}
	}
	count := int64(0)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if dirty[id] {
			continue
		}
		dirty[id] = true
		count++
		for _, f := range c.Fanouts(id) {
			if !dirty[f] {
				stack = append(stack, f)
			}
		}
	}
	o.scratch = stack[:0]
	mDirty.Add(count)

	// Levels of dirty nodes, in dependency order via DFS (clean fanins keep
	// their stored level).
	done := make([]bool, n)
	var lvl func(id int) int
	lvl = func(id int) int {
		if !dirty[id] || done[id] {
			return o.levels[id]
		}
		done[id] = true
		nd := c.Nodes[id]
		m := -1
		for _, f := range nd.Fanin {
			if l := lvl(f); l > m {
				m = l
			}
		}
		o.levels[id] = m + 1
		return m + 1
	}
	for id := 0; id < n; id++ {
		if dirty[id] && c.Alive(id) {
			lvl(id)
		}
	}

	o.collectLive(c)
	o.sortTopo()

	o.db.Grow(c)
	for _, id := range o.topo {
		if !dirty[id] {
			continue
		}
		o.db.ComputeNode(c, id)
		v, ok := paths.LabelNode(c, o.np, id)
		o.np[id] = v
		o.npOver[id] = !ok
	}
	o.recomputeNpOK()
	o.refreshSDC(c, dirty)
}

func (o *optimizer) recomputeNpOK() {
	o.npOK = true
	for _, id := range o.topo {
		if o.npOver[id] {
			o.npOK = false
			break
		}
	}
}

func growInts(s []int, n int) []int {
	for len(s) < n {
		s = append(s, 0)
	}
	return s
}

func growU64(s []uint64, n int) []uint64 {
	for len(s) < n {
		s = append(s, 0)
	}
	return s
}

func growBool(s []bool, n int) []bool {
	for len(s) < n {
		s = append(s, false)
	}
	return s
}

// candidate pairs a subcircuit with its chosen unit realization and costs.
type candidate struct {
	sub        *subckt.Subcircuit
	spec       compare.Realization
	keepInputs []int // host node IDs for the spec's variables, in order
	gateSave   int   // N - N'
	pathsOnG   uint64

	// Evidence inputs (the tables are cache-shared; no extra allocation):
	// the support-reduced extracted function and, when identification used
	// reachability don't-cares, the care set it was matched under.
	stt     logic.TT
	care    logic.TT
	hasCare bool
}

// cost is what the objective compares between two realizations: the gate
// saving N - N' and the number of paths arriving at g.
type cost struct {
	gateSave int
	pathsOnG uint64
}

// unit is an identified realization held unboxed, so costing it allocates
// nothing: a single comparison unit, or a multi-unit one when isMulti.
type unit struct {
	single  compare.Spec
	multi   compare.MultiSpec
	isMulti bool
}

func (u *unit) cost(saved int, np []uint64) cost {
	if u.isMulti {
		return cost{saved - u.multi.GateCost(), u.multi.PathCost(np)}
	}
	return cost{saved - u.single.GateCost(), u.single.PathCost(np)}
}

func (u *unit) realization() compare.Realization {
	if u.isMulti {
		return u.multi
	}
	return u.single
}

// evalGate evaluates all candidates for gate output g and returns
// the chosen replacement, or nil to keep the existing logic.
//
// When decision tracing is on, one record per enumerated candidate is
// buffered in enumeration order and emitted at the end of the call, once the
// winner's outcome is known: losers to a realized winner stay Dominated, and
// the winner itself resolves to Accepted or to the enumerated rejection that
// blocked it (ObjectiveWorse, or PathBound when only the saturated path
// labels vetoed an otherwise-improving replacement).
//
// The best realized candidate so far is held in locals, unboxed; only an
// accepted one becomes a *candidate.
func (o *optimizer) evalGate(c *circuit.Circuit, g int) *candidate {
	subs := o.db.EnumerateFromCuts(c, g)
	np, npOK := o.np, o.npOK
	oldPathsOnG := np[g]
	var (
		best     candidate // best realized candidate; spec and keepInputs unset
		bestUnit unit
		bestKept []int           // best's retained variables (1-based indices into best.sub.Inputs)
		recs     []dtrace.Record // per-candidate trace, nil unless o.dt != nil
		bestRec  = -1            // index in recs of the current best's record
		npBuf    [logic.MaxVars]uint64
	)
	better := func(a, b cost) bool { // is a better than b?
		switch o.opt.Objective {
		case MinGates:
			if a.gateSave != b.gateSave {
				return a.gateSave > b.gateSave
			}
			return a.pathsOnG < b.pathsOnG
		case MinPaths:
			if a.pathsOnG != b.pathsOnG {
				return a.pathsOnG < b.pathsOnG
			}
			return a.gateSave > b.gateSave
		default: // Combined
			ma := float64(int64(oldPathsOnG)-int64(a.pathsOnG)) + o.opt.CombinedGateWeight*float64(a.gateSave)
			mb := float64(int64(oldPathsOnG)-int64(b.pathsOnG)) + o.opt.CombinedGateWeight*float64(b.gateSave)
			return ma > mb
		}
	}
	for _, sub := range subs {
		mCandidates.Inc()
		hCandInputs.Observe(float64(len(sub.Inputs)))
		// Extraction drops inputs the function does not depend on: they
		// contribute no logic and their paths disappear entirely.
		stt, kept := sub.Extract(c).Shrink()
		if stt.Vars() == 0 {
			if o.dt != nil {
				recs = o.candRec(recs, c, g, sub, oldPathsOnG, dtrace.ConstFunction)
			}
			continue // constant function: left to Simplify
		}
		var u unit
		var dcCare logic.TT
		usedDC := false
		var ok bool
		u.single, ok = o.identify(stt)
		if !ok && o.valbits != nil {
			// Reachability don't-cares may still admit a single unit.
			keep := make([]int, len(kept))
			for j, v := range kept {
				keep[j] = sub.Inputs[v-1]
			}
			care := o.careSet(keep)
			if !care.IsConst(true) {
				u.single, ok = o.identifyDC(stt, care)
				if ok {
					dcCare, usedDC = care, true
				}
			}
		}
		if !ok && o.opt.MaxUnits > 1 {
			u.multi, ok = o.identifyMulti(stt)
			u.isMulti = true
		}
		if !ok {
			if o.dt != nil {
				recs = o.candRec(recs, c, g, sub, oldPathsOnG, dtrace.NoComparisonUnit)
			}
			continue
		}
		// subNp[j] is the path count into the host node of variable j+1.
		subNp := npBuf[:len(kept)]
		for j, v := range kept {
			subNp[j] = np[sub.Inputs[v-1]]
		}
		// N depends on the candidate, not on its realization: compute it
		// once for every alternative below.
		saved := sub.GateSavings(c)
		cur := u.cost(saved, subNp)
		// Try alternative realizations when available.
		if o.opt.MaxSpecs > 1 && !o.opt.UseSampling {
			for _, alt := range o.identifyAll(stt) {
				ac := cost{saved - alt.GateCost(), alt.PathCost(subNp)}
				if better(ac, cur) {
					cur, u = ac, unit{single: alt}
				}
			}
		}
		if best.sub == nil || better(cur, cost{best.gateSave, best.pathsOnG}) {
			best = candidate{
				sub:      sub,
				gateSave: cur.gateSave,
				pathsOnG: cur.pathsOnG,
				stt:      stt,
				care:     dcCare,
				hasCare:  usedDC,
			}
			bestUnit, bestKept = u, kept
			bestRec = len(recs) // the record appended just below
		}
		if o.dt != nil {
			// Realized candidates default to Dominated; the winner's record
			// is resolved after the sweep below.
			recs = o.candRec(recs, c, g, sub, oldPathsOnG, dtrace.Dominated)
			rec := &recs[len(recs)-1]
			rec.GateSave = cur.gateSave
			rec.PathsAfter = cur.pathsOnG
			rec.UsedDC = usedDC
			o.setSpec(rec, u.realization())
		}
	}
	// Only rewrite when the objective strictly improves (the identity
	// replacement keeps the circuit unchanged otherwise). A best that fails
	// the gate resolves to its enumerated rejection: PathBound when only the
	// saturated path labels (npOK == false) vetoed an improvement the
	// objective would otherwise take, ObjectiveWorse for a plain shortfall.
	accepted := false
	rejection := dtrace.ObjectiveWorse
	if best.sub != nil {
		switch o.opt.Objective {
		case MinGates:
			if best.gateSave > 0 || (best.gateSave == 0 && npOK && best.pathsOnG < oldPathsOnG) {
				accepted = true
			} else if best.gateSave == 0 && best.pathsOnG < oldPathsOnG && !npOK {
				rejection = dtrace.PathBound
			}
		case MinPaths:
			if npOK && best.pathsOnG < oldPathsOnG {
				accepted = true
			} else if best.pathsOnG < oldPathsOnG && !npOK {
				rejection = dtrace.PathBound
			}
		default:
			m := float64(int64(oldPathsOnG)-int64(best.pathsOnG)) + o.opt.CombinedGateWeight*float64(best.gateSave)
			if m > 0 {
				accepted = true
			}
		}
	}
	if o.dt != nil {
		if bestRec >= 0 {
			if accepted {
				recs[bestRec].Outcome = dtrace.Accepted
			} else {
				recs[bestRec].Outcome = rejection
			}
		}
		for i := range recs {
			o.dt.Emit(recs[i])
		}
	}
	if !accepted {
		return nil
	}
	out := best
	out.spec = bestUnit.realization()
	out.keepInputs = make([]int, len(bestKept))
	for j, v := range bestKept {
		out.keepInputs[j] = best.sub.Inputs[v-1]
	}
	return &out
}

// rebuildSDC precomputes every node's value over the full primary-input
// space (64 patterns per word) when the SDC mode is engaged.
func (o *optimizer) rebuildSDC(c *circuit.Circuit) {
	o.valbits = nil
	o.careCache = nil
	nPI := len(c.Inputs)
	max := o.opt.SDCMaxInputs
	if max <= 0 {
		max = 14
	}
	if !o.opt.UseSDC || nPI > max || nPI >= 30 {
		return
	}
	ssp := o.opt.Tracer.StartSpan("resynth.sdc")
	defer ssp.End()
	o.nPI = nPI
	words := ((1 << nPI) + 63) / 64
	o.valbits = make([][]uint64, len(c.Nodes))
	for j, id := range c.Inputs {
		o.valbits[id] = inputRow(j, words)
	}
	buf := make([]uint64, 0, 8)
	for _, id := range o.topo {
		if c.Nodes[id].Type == circuit.Input {
			continue
		}
		o.valbits[id] = o.evalRow(c, id, words, &buf)
	}
	o.careCache = par.NewCache[careKey, logic.TT]()
}

// refreshSDC re-simulates only the dirty cone; clean rows are values of
// unchanged fanin cones and stay valid. The care cache restarts because its
// entries project rows that may have changed.
func (o *optimizer) refreshSDC(c *circuit.Circuit, dirty []bool) {
	if o.valbits == nil {
		return // mode off or out of range; PI count never changes mid-run
	}
	ssp := o.opt.Tracer.StartSpan("resynth.sdc")
	defer ssp.End()
	words := ((1 << o.nPI) + 63) / 64
	buf := make([]uint64, 0, 8)
	for _, id := range o.topo {
		if !dirty[id] || c.Nodes[id].Type == circuit.Input {
			continue
		}
		o.valbits[id] = o.evalRow(c, id, words, &buf)
	}
	o.careCache = par.NewCache[careKey, logic.TT]()
}

// inputRow is primary input j's value over all patterns: bit p = bit j of p.
func inputRow(j, words int) []uint64 {
	row := make([]uint64, words)
	for w := range row {
		var word uint64
		for b := 0; b < 64; b++ {
			if (uint64(w*64+b)>>uint(j))&1 == 1 {
				word |= 1 << b
			}
		}
		row[w] = word
	}
	return row
}

// evalRow computes one gate's full-space value row from its fanins' rows.
func (o *optimizer) evalRow(c *circuit.Circuit, id, words int, buf *[]uint64) []uint64 {
	nd := c.Nodes[id]
	row := make([]uint64, words)
	for w := 0; w < words; w++ {
		b := (*buf)[:0]
		for _, f := range nd.Fanin {
			b = append(b, o.valbits[f][w])
		}
		*buf = b
		row[w] = nd.Type.EvalWords(b)
	}
	return row
}

// careSet projects the reachable primary-input space onto the given input
// nodes: bit m of the result is 1 iff some PI pattern drives the inputs to
// the combination m (MSB-first order, matching Extract). The projection is
// word-hoisted: each input's row is fetched once and 64 patterns are read
// per word. inputs holds at most logic.MaxVars nodes: it is the support of a
// Shrinked table.
func (o *optimizer) careSet(inputs []int) logic.TT {
	key := careKey{n: len(inputs)}
	for j, id := range inputs {
		key.ids[j] = int32(id)
	}
	if tt, ok := o.careCache.Get(key); ok {
		return tt
	}
	n := len(inputs)
	care := logic.New(n)
	rows := make([][]uint64, n)
	for j, id := range inputs {
		rows[j] = o.valbits[id]
	}
	total := 1 << o.nPI
	for base := 0; base < total; base += 64 {
		w := base >> 6
		lim := 64
		if total-base < 64 {
			lim = total - base
		}
		for b := 0; b < lim; b++ {
			idx := 0
			for j := 0; j < n; j++ {
				if rows[j][w]>>uint(b)&1 != 0 {
					idx |= 1 << (n - 1 - j)
				}
			}
			care.Set(idx, true)
		}
	}
	o.careCache.Set(key, care)
	return care
}

// identifyMulti finds a multi-unit realization (Section 6 extension), with
// memoization.
func (o *optimizer) identifyMulti(tt logic.TT) (compare.MultiSpec, bool) {
	key := tt.Key()
	if r, ok := o.multiCache.Get(key); ok {
		mCacheHits.Inc()
		return r.spec, r.ok
	}
	spec, ok := compare.IdentifyMulti(tt, o.opt.MaxUnits, o.opt.MultiPerms, o.rngFor(key))
	o.multiCache.Set(key, cachedMulti{spec, ok})
	return spec, ok
}

// identify finds a unit realization for tt, via the exact search or the
// paper's sampling method, with memoization. A warm hit performs no
// allocation: the key is a fixed-size value and the cache shards on it
// without building a string.
func (o *optimizer) identify(tt logic.TT) (compare.Spec, bool) {
	key := tt.Key()
	if r, ok := o.cache.Get(key); ok {
		mCacheHits.Inc()
		return r.spec, r.ok
	}
	var spec compare.Spec
	var ok bool
	if o.opt.UseSampling {
		spec, ok = compare.IdentifySampling(tt, o.opt.SamplingPerms, o.rngFor(key))
	} else {
		spec, ok = compare.IdentifyBest(tt)
	}
	o.cache.Set(key, cachedSpec{spec, ok})
	return spec, ok
}

// identifyDC finds a unit realization of tt under the care set, with
// memoization (the search is exact, so the cache is pure).
func (o *optimizer) identifyDC(tt, care logic.TT) (compare.Spec, bool) {
	key := dcKey{f: tt.Key(), care: care.Key()}
	if r, ok := o.dcCache.Get(key); ok {
		mCacheHits.Inc()
		return r.spec, r.ok
	}
	spec, ok := compare.IdentifyDC(tt, care)
	o.dcCache.Set(key, cachedSpec{spec, ok})
	return spec, ok
}

// identifyAll memoizes the alternative-realization enumeration (MaxSpecs is
// constant for the run, so the truth table alone keys it).
func (o *optimizer) identifyAll(tt logic.TT) []compare.Spec {
	key := tt.Key()
	if specs, ok := o.allCache.Get(key); ok {
		mCacheHits.Inc()
		return specs
	}
	specs := compare.IdentifyAll(tt, o.opt.MaxSpecs)
	o.allCache.Set(key, specs)
	return specs
}

// apply builds the unit, rewires g's consumers to it and sweeps dead logic.
func (o *optimizer) apply(c *circuit.Circuit, cand *candidate) {
	gate := c.Nodes[cand.sub.Out].Name // captured before the rewire kills the node
	out := cand.spec.Build(c, cand.keepInputs, compare.BuildOptions{
		Merge:      o.opt.Merge,
		NamePrefix: fmt.Sprintf("cu%d_", cand.sub.Out),
	})
	if out == cand.sub.Out {
		return
	}
	c.ReplaceUses(cand.sub.Out, out)
	c.SweepDead()
	if o.opt.Certify {
		ev := ledger.Evidence{
			Pass: o.passNo,
			Gate: gate,
			Vars: cand.stt.Vars(),
			TT:   cand.stt.Hex(),
			Spec: ledger.SpecInfoOf(cand.spec),
		}
		if cand.hasCare {
			ev.Care = cand.care.Hex()
		}
		o.evidence = append(o.evidence, ev)
	}
}
