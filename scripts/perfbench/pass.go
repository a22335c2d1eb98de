package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"compsynth/internal/obs"
)

// passRun carries one pass: the settings the workload's calls use and the
// result they accumulate.
type passRun struct {
	seed    int64
	workers int
	tr      *obs.Tracer
	ref     *speedRef
	lastRef time.Duration // the speed reference's time after the previous call
	res     *passResult
	checks  []func() string // per op, run by runChecks
}

func newPassRun(seed int64, workers int, tr *obs.Tracer, ref *speedRef) *passRun {
	return &passRun{seed: seed, workers: workers, tr: tr, ref: ref, res: &passResult{
		counters: map[string]int64{},
	}}
}

// opResult is one public call's outcome.
type opResult struct {
	name string
	err  error  // returned by the pipeline
	bad  string // why the output check rejected an output: a wrong result
}

func (o opResult) failure() string {
	if o.err != nil {
		return o.err.Error()
	}
	return o.bad
}

type callTime struct {
	name string
	d    time.Duration
}

// passResult is what one pass measured and produced.
type passResult struct {
	wall     time.Duration    // sum of the timed calls
	cpu      time.Duration    // process CPU time over the timed calls
	scaled   time.Duration    // CPU time of the timed calls at the reference speed, without the reference's own
	slowdown []float64        // per call: the speed reference's time ÷ refNominal
	calls    []callTime       // one per timed call, in call order
	counters map[string]int64 // metric counter deltas over the calls
	// abortShare accumulates aborts × (backtrack limit + 1) over the calls,
	// the backtracks spent on aborted PODEM calls.
	abortShare int64
	ops        []opResult
	gates      []float64 // per-output equiv-2 gate ratio; 1 for a failed op
	paths      []float64 // per-output path ratio; 1 for a failed op
	aborted    int       // sum of redundancy.Result.Aborted
	faults     int       // collapsed faults of the Remove outputs
	sampled    int       // outputs checked on random words (above the exhaustive bound)
	exhaustive int       // outputs checked on every input pattern
	allocMB    float64
	gcCycles   int64
}

// callSeconds is the total wall time of the calls to the named function.
func (r *passResult) callSeconds(name string) float64 {
	var d time.Duration
	for _, c := range r.calls {
		if c.name == name {
			d += c.d
		}
	}
	return d.Seconds()
}

func (r *passResult) failed() int {
	n := 0
	for _, o := range r.ops {
		if o.failure() != "" {
			n++
		}
	}
	return n
}

// decidedFaultRatio is the share of the Remove outputs' collapsed faults
// that PODEM did not leave aborted; 1 when the pass removed nothing.
func (r *passResult) decidedFaultRatio() float64 {
	if r.faults == 0 {
		return 1
	}
	return 1 - float64(r.aborted)/float64(r.faults)
}

// outcome renders the pass's deterministic result: each op's success, the
// quality ratios, the abort count and the exact counters.
func (r *passResult) outcome() string {
	var b strings.Builder
	for _, o := range r.ops {
		fmt.Fprintf(&b, "%s=%v\n", o.name, o.failure() == "")
	}
	fmt.Fprintf(&b, "gates=%v\npaths=%v\naborted=%d\nfaults=%d\n", r.gates, r.paths, r.aborted, r.faults)
	for _, n := range exactCounters {
		fmt.Fprintf(&b, "%s=%d\n", n, r.counters[n])
	}
	return b.String()
}

// call times one public call. The benchmark span around it is the traced
// pass's attribution root; the counters are read outside the timed window.
// limit is the PODEM backtrack limit the call runs under (0 if none).
func (p *passRun) call(name string, limit int, fn func() error) error {
	if p.lastRef == 0 {
		p.lastRef = p.ref.measure()
	}
	refs := []time.Duration{p.lastRef}
	before := readCounters()
	sp := p.tr.StartSpan(name)
	stop := make(chan struct{})
	samples := p.ref.sample(refEvery, stop)
	t0, c0 := time.Now(), processCPU()
	err := fn()
	d, cpu := time.Since(t0), processCPU()-c0
	close(stop)
	sp.End()
	refs = append(refs, <-samples...)
	after := readCounters()
	for i, n := range counterNames {
		p.res.counters[n] += after[i] - before[i]
		if n == "atpg.aborts" {
			p.res.abortShare += (after[i] - before[i]) * int64(limit+1)
		}
	}
	p.lastRef = p.ref.measure()
	refs = append(refs, p.lastRef)
	slow := float64(medianDuration(refs)) / float64(refNominal)
	own := cpu // the call's CPU time without the repetitions run during it
	for _, r := range refs[1 : len(refs)-1] {
		own -= r
	}
	p.res.wall += d
	p.res.cpu += cpu
	p.res.scaled += time.Duration(float64(own) / slow)
	p.res.slowdown = append(p.res.slowdown, slow)
	p.res.calls = append(p.res.calls, callTime{name, d})
	return err
}

// op records a public call's outcome. check, if not nil, is the
// independent output check; it runs after every timed call of the pass and
// returns why it rejected an output ("" to accept). A rejected output is
// wrong even when another part of the same call returned an error.
func (p *passRun) op(name string, err error, check func() string) {
	p.res.ops = append(p.res.ops, opResult{name: name, err: err})
	p.checks = append(p.checks, check)
}

// runChecks runs the pending output checks, outside the timed calls.
func (p *passRun) runChecks() {
	for i, check := range p.checks {
		if check == nil {
			continue
		}
		if bad := check(); bad != "" {
			p.res.ops[i].bad = bad
		}
	}
	p.checks = nil
}

// ratio is out/in (1 for an empty input).
func ratio[T int | uint64](in, out T) float64 {
	if in == 0 {
		return 1
	}
	return float64(out) / float64(in)
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
