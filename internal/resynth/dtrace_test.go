package resynth

import (
	"encoding/json"
	"testing"

	"compsynth/internal/gen"
	"compsynth/internal/obs/dtrace"
)

// traceRun optimizes c with a capturing decision-trace sink and returns the
// records plus the result.
func traceRun(t *testing.T, opt Options) ([]dtrace.Record, *Result) {
	t.Helper()
	var recs []dtrace.Record
	opt.Dtrace = dtrace.New(dtrace.Mode{Level: dtrace.LevelFull}, func(r *dtrace.Record) {
		recs = append(recs, *r)
	})
	c := gen.SmallSuite()[0].Build()
	res, err := Optimize(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	return recs, res
}

// TestDtraceDeterministic is the decision-trace half of the determinism
// contract: the full trace — every record, in order, marshaled — is
// byte-identical for two runs on the same input. Records carry no timing or
// cache provenance, so any divergence here means something order-dependent
// leaked into the decision path.
func TestDtraceDeterministic(t *testing.T) {
	for _, objective := range []Objective{MinGates, MinPaths, Combined} {
		opt := DefaultOptions()
		opt.Objective = objective
		opt.MaxPasses = 4
		opt.Verify = false
		first, _ := traceRun(t, opt)
		second, _ := traceRun(t, opt)
		sj, err := json.Marshal(first)
		if err != nil {
			t.Fatal(err)
		}
		pj, err := json.Marshal(second)
		if err != nil {
			t.Fatal(err)
		}
		if string(sj) != string(pj) {
			t.Errorf("%v: decision traces diverge between two runs (%d vs %d records)",
				objective, len(first), len(second))
		}
		if len(first) == 0 {
			t.Errorf("%v: empty decision trace", objective)
		}
	}
}

// TestDtraceAccountsForEveryDecision pins the trace's completeness
// invariants: every outcome is an enumerated reason used on the right record
// kind, accepted candidate records match gate-level replacements one-to-one,
// and the replacement count in the result equals both.
func TestDtraceAccountsForEveryDecision(t *testing.T) {
	opt := DefaultOptions()
	opt.MaxPasses = 4
	opt.Verify = false
	recs, res := traceRun(t, opt)

	candOutcomes := map[dtrace.Reason]bool{
		dtrace.Accepted:         true,
		dtrace.ConstFunction:    true,
		dtrace.NoComparisonUnit: true,
		dtrace.Dominated:        true,
		dtrace.ObjectiveWorse:   true,
		dtrace.PathBound:        true,
	}
	gateOutcomes := map[dtrace.Reason]bool{
		dtrace.Replaced:        true,
		dtrace.Kept:            true,
		dtrace.SkippedDead:     true,
		dtrace.SkippedUnmarked: true,
		dtrace.SkippedNonGate:  true,
	}
	accepted, replaced := 0, 0
	for i, r := range recs {
		switch r.Kind {
		case "cand":
			if !candOutcomes[r.Outcome] {
				t.Fatalf("record %d: candidate outcome %v not in the candidate enum", i, r.Outcome)
			}
			if r.Outcome == dtrace.Accepted {
				accepted++
			}
		case "gate":
			if !gateOutcomes[r.Outcome] {
				t.Fatalf("record %d: gate outcome %v not in the gate enum", i, r.Outcome)
			}
			if r.Outcome == dtrace.Replaced {
				replaced++
			}
		default:
			t.Fatalf("record %d: unknown kind %q", i, r.Kind)
		}
	}
	if accepted != res.Replacements || replaced != res.Replacements {
		t.Errorf("trace accounts %d accepted / %d replaced records, result reports %d replacements",
			accepted, replaced, res.Replacements)
	}
	if res.Replacements == 0 {
		t.Error("suite circuit produced no replacements; trace invariants untested")
	}
}

// TestDtraceSeqDense pins the tracer-assigned sequence numbers: full mode
// numbers every record densely from 0, giving consumers a gap-free cursor.
func TestDtraceSeqDense(t *testing.T) {
	opt := DefaultOptions()
	opt.MaxPasses = 2
	opt.Verify = false
	recs, _ := traceRun(t, opt)
	for i, r := range recs {
		if r.Seq != int64(i) {
			t.Fatalf("record %d carries seq %d, want dense numbering", i, r.Seq)
		}
	}
}
