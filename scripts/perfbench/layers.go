package main

import "compsynth/internal/obs"

// selfTimes sums span self-time (duration minus the children's durations)
// by span name, in seconds.
func selfTimes(spans []obs.SpanJSON) map[string]float64 {
	self := map[string]float64{}
	var walk func(s obs.SpanJSON)
	walk = func(s obs.SpanJSON) {
		d := s.DurMS
		for _, c := range s.Children {
			d -= c.DurMS
			walk(c)
		}
		self[s.Name] += d / 1e3
	}
	for _, s := range spans {
		walk(s)
	}
	return self
}

// layerMetrics assembles the per-layer metrics of the traced pass tp.
// Times are span self-times of the program's spans (named in lower case)
// and of the benchmark's call spans (named after the public function);
// counts are counter deltas over the pass's calls.
func layerMetrics(tp *passResult, self map[string]float64, setup float64) map[string]value {
	m := map[string]value{}
	sec := func(name string, v float64) { m[name] = value{v, "s"} }
	cnt := func(name string) { m[name] = value{float64(tp.counters[name]), "count"} }
	share := func(name string, num, den float64) {
		r := 0.0
		if den > 0 {
			r = num / den
		}
		m[name] = value{r, "ratio"}
	}
	c := func(name string) float64 { return float64(tp.counters[name]) }

	atpg := self["redundancy.atpg"]
	sec("atpg.busy_s", atpg)
	for _, n := range []string{"atpg.calls", "atpg.backtracks", "atpg.aborts", "atpg.redundant_proofs"} {
		cnt(n)
	}
	us := 0.0
	if b := c("atpg.backtracks"); b > 0 {
		us = atpg * 1e6 / b
	}
	m["atpg.us_per_backtrack"] = value{us, "us"}
	share("atpg.decided_ratio", c("atpg.calls")-c("atpg.aborts"), c("atpg.calls"))
	share("atpg.aborted_backtrack_share", float64(tp.abortShare), c("atpg.backtracks"))

	sec("redundancy.remove_s", self["redundancy.remove"])
	sec("redundancy.round_self_s", self["redundancy.round"])
	for _, n := range []string{"redundancy.rounds", "redundancy.faults_proven_redundant", "redundancy.faults_aborted"} {
		cnt(n)
	}
	m["redundancy.aborted_faults"] = value{float64(tp.aborted), "count"}

	sec("faultsim.busy_s", self["faultsim.campaign"])
	for _, n := range []string{"faultsim.patterns_simulated", "faultsim.fault_evals", "faultsim.faults_detected"} {
		cnt(n)
	}

	sec("resynth.optimize_s", self["resynth.optimize"])
	sec("resynth.pass_self_s", self["resynth.pass"])
	sec("resynth.cuts_s", self["resynth.cuts"])
	sec("resynth.prefetch_s", self["resynth.prefetch"])
	for _, n := range []string{"resynth.passes", "resynth.candidates_examined", "resynth.replacements_accepted",
		"resynth.dirty_nodes", "resynth.identify_cache_hits", "resynth.extract_cache_hits"} {
		cnt(n)
	}
	share("resynth.accept_ratio", c("resynth.replacements_accepted"), c("resynth.candidates_examined"))
	sec("simulate.verify_s", self["resynth.verify"])
	for _, n := range []string{"compare.identify_calls", "compare.identify_hits",
		"circuit.csr_rebuilds", "circuit.csr_patched_nodes", "circuit.csr_full_rebuilds"} {
		cnt(n)
	}

	sec("exper.prepare_s", tp.callSeconds("exper.PrepareSuite"))
	for _, t := range []string{"2", "3", "4", "5", "6", "7"} {
		sec("exper.table"+t+"_s", tp.callSeconds("exper.Table"+t))
	}
	for _, t := range []string{"3", "4", "7"} {
		sec("exper.table"+t+"_self_s", self["exper.Table"+t])
	}
	for _, n := range []string{"exper.rows_completed", "delay.pairs_simulated", "delay.path_faults_detected",
		"par.tasks", "par.parallel_runs"} {
		cnt(n)
	}

	sec("gen.build_s", setup)
	m["runtime.alloc_mb"] = value{tp.allocMB, "MB"}
	m["runtime.gc_cycles"] = value{float64(tp.gcCycles), "count"}
	m["check.outputs_sampled"] = value{float64(tp.sampled), "count"}
	m["check.outputs_exhaustive"] = value{float64(tp.exhaustive), "count"}
	sec("trace.wall_s", tp.wall.Seconds())
	return m
}
