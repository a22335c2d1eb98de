package main

import (
	"fmt"

	"compsynth/internal/circuit"
	"compsynth/internal/exper"
	"compsynth/internal/faults"
	"compsynth/internal/gen"
	"compsynth/internal/redundancy"
	"compsynth/internal/resynth"
)

// suiteScale is the suite size of every workload (the -quick scale).
const suiteScale = 0.15

// prepLimit is the PODEM backtrack limit exper.PrepareSuite uses; the
// table calls remove redundancy at redundancy.DefaultOptions' limit.
const prepLimit = 1000

// buildSuite generates the named suite circuits (the calibrated analogs).
func buildSuite(names []string) map[string]*circuit.Circuit {
	out := map[string]*circuit.Circuit{}
	for _, b := range gen.Suite(suiteScale) {
		for _, n := range names {
			if b.Name == n {
				out[n] = b.Build()
			}
		}
	}
	return out
}

// tablesCircuits is the smallest suite subset that reaches every table:
// Tables 3 and 4 need rs1423..rs13207, Table 7 needs rs13207.
var tablesCircuits = []string{"rs1423", "rs5378", "rs9234", "rs13207", "rs15850"}

// tablesQuick runs the cmd/tables path: suite preparation, then Tables 2-7.
// The workload seed shifts the campaign seed. Setup builds the raw
// circuits as the references of the preparation check.
var tablesQuick = workload{
	name: "tables-quick", workers: 2, traceWorkers: 1,
	setup: func() any { return buildSuite(tablesCircuits) },
	run:   runTablesQuick,
}

func runTablesQuick(p *passRun, in any) {
	raw := in.(map[string]*circuit.Circuit)
	cfg := exper.QuickConfig()
	cfg.Seed += p.seed
	cfg.Circuits = tablesCircuits
	cfg.Workers = p.workers
	cfg.Tracer = p.tr
	var items []exper.Named
	err := p.call("exper.PrepareSuite", prepLimit, func() (err error) {
		items, err = exper.PrepareSuite(cfg)
		return err
	})
	p.op("exper.PrepareSuite", err, func() string {
		bad := ""
		for _, nc := range items {
			ref := raw[nc.Name]
			p.res.gates = append(p.res.gates, ratio(ref.Equiv2Count(), nc.Circuit.Equiv2Count()))
			p.res.paths = append(p.res.paths, ratio(countPaths(ref), countPaths(nc.Circuit)))
			bad = firstBad(bad, p.named(nc.Name, ref, nc.Circuit))
		}
		return bad
	})
	if err != nil {
		for _, t := range []string{"2", "3", "4", "5", "6", "7"} {
			p.op("exper.Table"+t, fmt.Errorf("no suite: %v", err), nil)
		}
		return
	}
	s := exper.NewSuite(cfg, items)
	rows := p.rowChecker()
	rrLimit := redundancy.DefaultOptions().BacktrackLimit
	// table times one table call and queues its check, which learns
	// whether the call succeeded.
	table := func(name string, limit int, run func() error, check func(ok bool) string) {
		err := p.call(name, limit, run)
		p.op(name, err, func() string { return check(err == nil) })
	}
	rowsOf := func(format func() string) func(bool) string {
		return func(ok bool) string {
			if !ok {
				return ""
			}
			return rows(format())
		}
	}

	var t2 []exper.Table2Row
	table("exper.Table2", rrLimit, func() (err error) {
		t2, err = exper.Table2(s)
		return err
	}, func(ok bool) string {
		bad := rowsOf(func() string { return exper.FormatTable2(t2) })(ok)
		return firstBad(bad, p.checkProc2(s, items))
	})
	var t3 []exper.Table3Row
	table("exper.Table3", 0, func() (err error) {
		t3, err = exper.Table3(s)
		return err
	}, rowsOf(func() string { return exper.FormatTable3(t3) }))
	var t4a, t4b []exper.Table4Row
	table("exper.Table4", 0, func() (err error) {
		t4a, t4b, err = exper.Table4(s)
		return err
	}, rowsOf(func() string { return exper.FormatTable4(t4a, t4b) }))
	var t5 []exper.Table5Row
	table("exper.Table5", 0, func() (err error) {
		t5, err = exper.Table5(s)
		return err
	}, func(ok bool) string {
		bad := rowsOf(func() string { return exper.FormatTable5(t5) })(ok)
		return firstBad(bad, p.checkProc3(s, items))
	})
	var t6 []exper.Table6Row
	table("exper.Table6", 0, func() (err error) {
		t6, err = exper.Table6(s)
		return err
	}, rowsOf(func() string { return exper.FormatTable6(t6) }))
	var t7 []exper.Table7Row
	table("exper.Table7", rrLimit, func() (err error) {
		t7, err = exper.Table7(s)
		return err
	}, rowsOf(func() string { return exper.FormatTable7(t7) }))
}

// checkProc2 checks the suite's memoized Procedure 2 and Procedure 2 +
// redundancy-removal circuits against the prepared ones and records their
// ratios. The memos were filled by Table 2, so reading them recomputes
// nothing; a circuit whose computation failed counts as no improvement.
func (p *passRun) checkProc2(s *exper.Suite, items []exper.Named) string {
	bad := ""
	for _, nc := range items {
		res, _, err := s.Proc2(nc)
		p.res.gates = append(p.res.gates, okRatio(err, func() float64 {
			return ratio(res.GatesBefore, res.GatesAfter)
		}))
		if err == nil {
			bad = firstBad(bad, p.named(nc.Name+" Proc.2", nc.Circuit, res.Circuit))
		}
		rr, err := s.ModifiedRR(nc)
		p.res.gates = append(p.res.gates, okRatio(err, func() float64 {
			return ratio(rr.GatesBefore, rr.GatesAfter)
		}))
		p.res.paths = append(p.res.paths, okRatio(err, func() float64 {
			return ratio(countPaths(res.Circuit), countPaths(rr.Circuit))
		}))
		if err == nil {
			p.res.aborted += rr.Aborted
			p.res.faults += len(faults.Collapse(rr.Circuit))
			bad = firstBad(bad, p.named(nc.Name+" Proc.2+RR", nc.Circuit, rr.Circuit))
		}
	}
	return bad
}

// checkProc3 checks the memoized Procedure 3 circuits (the Table 5 rows).
// A circuit whose Procedure 3 failed is recomputed here, outside the timed
// call, fails again and counts as no improvement.
func (p *passRun) checkProc3(s *exper.Suite, items []exper.Named) string {
	bad := ""
	for _, nc := range items {
		res, _, err := s.Proc3(nc)
		p.res.paths = append(p.res.paths, okRatio(err, func() float64 {
			return ratio(res.PathsBefore, res.PathsAfter)
		}))
		if err == nil {
			bad = firstBad(bad, p.named(nc.Name+" Proc.3", nc.Circuit, res.Circuit))
		}
	}
	return bad
}

func okRatio(err error, r func() float64) float64 {
	if err != nil {
		return 1
	}
	return r()
}

// firstBad keeps the first of two rejections ("" = none).
func firstBad(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// named prefixes a rejection with the output's name.
func (p *passRun) named(name string, ref, out *circuit.Circuit) string {
	if bad := p.equivalent(ref, out); bad != "" {
		return name + ": " + bad
	}
	return ""
}

// redundancyRaw runs the Table 2 "red.rem" redundancy removal on raw,
// far-from-irredundant generator circuits: PODEM-dominated. The workload
// seed shifts the removal's pattern seed (random filter and equivalence
// check).
var redundancyRaw = workload{
	name: "redundancy-raw", workers: 2, traceWorkers: 2,
	setup: func() any { return buildSuite(redundancyCircuits) },
	run:   runRedundancyRaw,
}

var redundancyCircuits = []string{"rs5378", "rs9234", "rs13207", "rs35932"}

func runRedundancyRaw(p *passRun, in any) {
	raw := in.(map[string]*circuit.Circuit)
	opt := redundancy.DefaultOptions()
	opt.Seed += p.seed
	opt.Tracer = p.tr
	for _, name := range redundancyCircuits {
		ref, c := raw[name], raw[name].Clone()
		var res *redundancy.Result
		err := p.call("redundancy.Remove", opt.BacktrackLimit, func() (err error) {
			res, err = redundancy.Remove(c, opt)
			return err
		})
		p.op("redundancy.Remove:"+name, err, func() string {
			if err != nil {
				p.res.gates = append(p.res.gates, 1)
				p.res.paths = append(p.res.paths, 1)
				return ""
			}
			p.res.gates = append(p.res.gates, ratio(res.GatesBefore, res.GatesAfter))
			p.res.paths = append(p.res.paths, ratio(countPaths(ref), countPaths(res.Circuit)))
			p.res.aborted += res.Aborted
			p.res.faults += len(faults.Collapse(res.Circuit))
			return p.named(name, ref, res.Circuit)
		})
	}
}

// resynthRaw runs Procedures 2 and 3 at K=5 and K=6 on raw generator
// circuits with the candidate prefetch on: resynthesis, cuts,
// identification and verification, and no PODEM. The workload seed shifts
// the optimizer's seed (the per-pass equivalence check's patterns).
var resynthRaw = workload{
	name: "resynth-raw", workers: 2, traceWorkers: 2,
	setup: func() any { return buildSuite(resynthCircuits) },
	run:   runResynthRaw,
}

var resynthCircuits = []string{"rs5378", "rs9234", "rs13207", "rs15850", "rs35932", "rs38417", "rs38584"}

func runResynthRaw(p *passRun, in any) {
	raw := in.(map[string]*circuit.Circuit)
	for _, name := range resynthCircuits {
		for _, obj := range []resynth.Objective{resynth.MinGates, resynth.MinPaths} {
			for _, k := range []int{5, 6} {
				opt := resynth.DefaultOptions()
				opt.K = k
				opt.Objective = obj
				opt.Verify = true
				opt.Seed += p.seed
				opt.Workers = p.workers
				opt.Tracer = p.tr
				ref, c := raw[name], raw[name].Clone()
				var res *resynth.Result
				err := p.call("resynth.Optimize", 0, func() (err error) {
					res, err = resynth.Optimize(c, opt)
					return err
				})
				op := fmt.Sprintf("resynth.Optimize:%s/%v/K=%d", name, obj, k)
				p.op(op, err, func() string {
					if obj == resynth.MinGates {
						p.res.gates = append(p.res.gates, okRatio(err, func() float64 {
							return ratio(res.GatesBefore, res.GatesAfter)
						}))
					} else {
						p.res.paths = append(p.res.paths, okRatio(err, func() float64 {
							return ratio(res.PathsBefore, res.PathsAfter)
						}))
					}
					if err != nil {
						return ""
					}
					return p.named(name, ref, res.Circuit)
				})
			}
		}
	}
}
