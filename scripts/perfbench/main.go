// Command perfbench is the repository's end-to-end benchmark. It drives the
// table-regeneration pipeline only from outside: it times calls into the
// public functions of exper, redundancy, resynth and gen, reads the
// internal/metric counters around each call, checks every output netlist
// with its own gate evaluator, and prints one JSON result line.
//
// Usage (from the repository root; see README.md):
//
//	bash scripts/perfbench/run.sh --workload tables-quick|redundancy-raw|resynth-raw \
//	    --seed n --seconds s --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced pass, measured after an
// untraced pass that sets the tracing overhead's base.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"compsynth/internal/metric"
	"compsynth/internal/obs"
)

// setupReps is how many times the inputs are generated; setup_s is the
// median of these builds, each at the reference speed the speed reference
// shows just before it.
const setupReps = 51

// workload is one benchmark input set. setup generates the input circuits
// (timed as setup_s); run executes one pass of public calls through p,
// which hands them the workload seed. Every workload runs on the
// calibrated suite circuits: the seed drives the pipeline's random pattern
// streams, because the generator seed sets PODEM effort heavy-tailedly
// (see README.md).
type workload struct {
	name    string
	workers int // engine worker budget of untraced passes
	// traceWorkers is the budget of the traced pass and its untraced base;
	// tables-quick traces at 1 worker because span nesting across
	// concurrent rows is not meaningful.
	traceWorkers int
	setup        func() any
	run          func(p *passRun, in any)
}

var workloads = []workload{tablesQuick, redundancyRaw, resynthRaw}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 0, "workload seed (0 = the calibrated suite)")
		seconds = flag.Int("seconds", 20, "measured time per run, in seconds")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics of a traced pass")
	)
	flag.Parse()
	// One P: the program's goroutines, its collector and the speed
	// reference take turns on one CPU at a time, so the reference measures
	// the CPU the program runs on (see ref.go). The workloads' worker
	// counts are set explicitly and still run their concurrent code paths,
	// but their parallel speed-up is not measured.
	runtime.GOMAXPROCS(1)
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runWorkload sets up the inputs, runs passes for the measured time and
// assembles the result. Untraced runs repeat passes for about d and report
// the median pass; traced runs make one untraced pass, the base of the
// tracing overhead, and one traced pass.
func runWorkload(w *workload, seed int64, d time.Duration, traced bool) (*result, error) {
	ref := newSpeedRef()
	var in any
	var setups []float64
	for i := 0; i < setupReps; i++ {
		// measure collects garbage, so each build starts without the
		// previous one's.
		slow := float64(ref.measure()) / float64(refNominal)
		c0 := processCPU()
		in = w.setup()
		setups = append(setups, (processCPU()-c0).Seconds()/slow)
	}
	setup := median(setups)

	workers := w.workers
	if traced {
		workers = w.traceWorkers
	}
	var passes []*passResult
	// rss is the peak resident memory at the end of the first pass's calls,
	// before any output check or outcome record adds the benchmark's own.
	var rss float64
	newPass := func(tr *obs.Tracer) *passResult {
		p := newPassRun(seed, workers, tr, ref)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		w.run(p, in)
		runtime.ReadMemStats(&m1)
		if rss == 0 {
			rss = peakRSSMB()
		}
		p.runChecks()
		p.res.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
		p.res.gcCycles = int64(m1.NumGC - m0.NumGC)
		passes = append(passes, p.res)
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d (workers %d, traced %v): %.3fs (CPU %.3fs; %.3fs at the reference speed, slowdown %.2f), %d ops, %d failed;",
			w.name, len(passes), workers, tr != nil, p.res.wall.Seconds(), p.res.cpu.Seconds(), p.res.scaled.Seconds(), median(p.res.slowdown),
			len(p.res.ops), p.res.failed())
		for i, c := range p.res.calls {
			fmt.Fprintf(os.Stderr, " %s %.3fs", p.res.ops[i].name, c.d.Seconds())
		}
		fmt.Fprintln(os.Stderr)
		return p.res
	}

	var tracer *obs.Tracer
	if traced {
		newPass(nil)
		tracer = obs.NewTracer()
		tracer.TrackAllocs = false // the pass's allocation total is read from the runtime
		tracer.MaxSpans = 1 << 22
		newPass(tracer)
	} else {
		// As many passes as fit d at the first pass's length, at least one:
		// a run stays near d however long one pass takes.
		n := int(math.Round(float64(d) / float64(newPass(nil).wall)))
		for len(passes) < n {
			newPass(nil)
		}
	}

	res := &result{Correct: true, Metrics: map[string]value{}}
	for i, p := range passes {
		res.Attempted += len(p.ops)
		res.Failed += p.failed()
		for _, op := range p.ops {
			if op.failure() != "" && (i == 0 || op.bad != "") {
				fmt.Fprintf(os.Stderr, "perfbench: %s: op %s failed: %s\n", w.name, op.name, op.failure())
			}
			if op.bad != "" {
				res.Correct = false
			}
		}
	}
	msg, err := checkDeterminism(passes, fmt.Sprintf("%s-seed%d-w%d", w.name, seed, workers))
	if err != nil {
		return nil, err
	}
	if msg != "" {
		fmt.Fprintln(os.Stderr, "perfbench: determinism:", msg)
		res.Correct = false
	}
	reportSchedulingSpread(passes)

	if !traced {
		times := make([]float64, len(passes))
		for i, p := range passes {
			times[i] = p.scaled.Seconds()
		}
		p := passes[0]
		res.Metrics["scaled_cpu_s"] = value{median(times), "s"}
		res.Metrics["setup_s"] = value{setup, "s"}
		res.Metrics["peak_rss_mb"] = value{rss, "MB"}
		res.Metrics["ok_ratio"] = value{float64(len(p.ops)-p.failed()) / float64(len(p.ops)), "ratio"}
		res.Metrics["gates_ratio"] = value{geomean(p.gates), "ratio"}
		res.Metrics["paths_ratio"] = value{geomean(p.paths), "ratio"}
		res.Metrics["decided_fault_ratio"] = value{p.decidedFaultRatio(), "ratio"}
		return res, nil
	}

	if n := tracer.Dropped(); n > 0 {
		return nil, fmt.Errorf("traced pass dropped %d spans", n)
	}
	base, tp := passes[0], passes[1]
	self := selfTimes(tracer.Export())
	var selfSum float64
	for _, s := range self {
		selfSum += s
	}
	accounted := selfSum / tp.wall.Seconds()
	if accounted < 0.98 || accounted > 1.02 {
		fmt.Fprintf(os.Stderr, "perfbench: span self-times sum to %.3fs, traced wall %.3fs\n", selfSum, tp.wall.Seconds())
		res.Correct = false
	}
	res.Metrics = layerMetrics(tp, self, setup)
	res.Metrics["trace.self_sum_ratio"] = value{accounted, "ratio"}
	res.Metrics["trace.overhead_ratio"] = value{tp.scaled.Seconds() / base.scaled.Seconds(), "ratio"}
	res.Metrics["ref.slowdown"] = value{median(tp.slowdown), "ratio"}
	return res, nil
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// exactCounters must repeat exactly in every run of a workload.
var exactCounters = []string{
	"atpg.calls", "atpg.backtracks", "atpg.aborts", "atpg.redundant_proofs",
	"redundancy.rounds", "redundancy.faults_proven_redundant", "redundancy.faults_aborted",
	"faultsim.patterns_simulated", "faultsim.fault_evals", "faultsim.faults_detected",
	"resynth.passes", "resynth.candidates_examined", "resynth.replacements_accepted",
	"exper.rows_completed", "delay.pairs_simulated", "delay.path_faults_detected",
}

// schedCounters may differ between passes under 2 workers: memo hits and
// fills race with the candidate prefetch, and the pool counters follow the
// fan-out. Their spread is reported, not enforced.
var schedCounters = []string{
	"resynth.identify_cache_hits", "resynth.extract_cache_hits",
	"compare.identify_calls", "compare.identify_hits", "resynth.dirty_nodes",
	"circuit.csr_rebuilds", "circuit.csr_patched_nodes", "circuit.csr_full_rebuilds",
	"par.tasks", "par.parallel_runs",
}

// counterNames are the internal/metric counters read around every call.
var counterNames = append(append([]string(nil), exactCounters...), schedCounters...)

func readCounters() []int64 {
	v := make([]int64, len(counterNames))
	for i, n := range counterNames {
		v[i] = metric.Default().Counter(n).Value()
	}
	return v
}

// checkDeterminism compares every pass's deterministic outcome with the
// first's, and the first's with the outcome an earlier run of the same
// binary recorded under key (recording it if there is none). It returns
// the first difference, or "".
func checkDeterminism(passes []*passResult, key string) (string, error) {
	want := passes[0].outcome()
	for i, p := range passes[1:] {
		if got := p.outcome(); got != want {
			return fmt.Sprintf("pass %d: %s", i+2, firstDiff(got, want)), nil
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("outcome record: %w", err)
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return "", fmt.Errorf("outcome record: %w", err)
	}
	dir := filepath.Join(filepath.Dir(exe), "outcomes")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("outcome record: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%x", key, sha256.Sum256(bin)))
	prev, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			return "", fmt.Errorf("outcome record: %w", err)
		}
		return "", nil
	}
	if err != nil {
		return "", fmt.Errorf("outcome record: %w", err)
	}
	if string(prev) != want {
		return "earlier run: " + firstDiff(want, string(prev)), nil
	}
	return "", nil
}

// firstDiff returns the first line of got that differs from want's.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range g {
		if i >= len(w) || g[i] != w[i] {
			wl := ""
			if i < len(w) {
				wl = w[i]
			}
			return fmt.Sprintf("%q, want %q", g[i], wl)
		}
	}
	return "outcomes differ in length"
}

func reportSchedulingSpread(passes []*passResult) {
	for _, n := range schedCounters {
		lo, hi := passes[0].counters[n], passes[0].counters[n]
		for _, p := range passes[1:] {
			lo, hi = min(lo, p.counters[n]), max(hi, p.counters[n])
		}
		if lo != hi {
			fmt.Fprintf(os.Stderr, "perfbench: scheduling-dependent %s: %d..%d over %d passes\n", n, lo, hi, len(passes))
		}
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
