// Command sftlint runs the repository's static analysis rules (package
// internal/lint): the syntactic rules (wall-clock/global-RNG bans,
// map-iteration-order hazards, obs metric naming, par.Cache key types,
// out-of-package circuit-node mutation) and the interprocedural rules on
// the whole-module call graph (purity of par task and cache seams,
// transitive wall-clock taint, unsynchronized goroutine-captured writes).
//
// Usage:
//
//	sftlint [flags] [packages]
//
// Packages are directories, optionally ending in /... for a recursive walk;
// the default is ./... . Exit status: 0 clean, 1 findings (or baseline /
// debt drift), 2 usage or load failure.
//
// CI runs `sftlint -rel "$PWD" -baseline lint_baseline.json -sarif sftlint.sarif`:
// baselined findings are suppression debt, any new finding fails, and the
// SARIF artifact lands next to the run reports. `-explain ID` prints the
// call-path witness for one finding; `-debt` tallies suppression comments
// and fails on drift against the baseline's pinned counts; `-update-golden`
// regenerates the fixture goldens in place.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"compsynth/internal/lint"
)

func main() {
	var (
		jsonOut      = flag.Bool("json", false, "emit diagnostics as a JSON array instead of text")
		rules        = flag.String("rules", "", "comma-separated rule subset (default: all of "+strings.Join(lint.AllRules(), ",")+")")
		detAll       = flag.Bool("det-all", false, "treat every package as deterministic pipeline code (used on the injected-violation fixtures)")
		relTo        = flag.String("rel", "", "report file paths relative to this directory")
		sarifOut     = flag.String("sarif", "", "also write diagnostics as SARIF 2.1.0 to this file")
		baselineFile = flag.String("baseline", "", "suppress findings recorded in this baseline file; new findings and stale entries fail")
		explainID    = flag.String("explain", "", "print the call-path witness for the finding with this ID (prefix match)")
		updateGolden = flag.Bool("update-golden", false, "regenerate internal/lint/testdata goldens in place and exit")
		debt         = flag.Bool("debt", false, "report suppression debt per package; with -baseline, fail on drift from the pinned counts")
	)
	flag.Parse()

	if *updateGolden {
		cwd, err := os.Getwd()
		if err != nil {
			fatal(err)
		}
		root, err := lint.ModuleRoot(cwd)
		if err != nil {
			fatal(err)
		}
		files, err := lint.UpdateGoldens(root)
		if err != nil {
			fatal(err)
		}
		for _, f := range files {
			fmt.Println("wrote", f)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := lint.ExpandPatterns(patterns)
	if err != nil {
		fatal(err)
	}
	if len(dirs) == 0 {
		fatal(fmt.Errorf("no packages matched"))
	}

	var baseline *lint.Baseline
	if *baselineFile != "" {
		baseline, err = lint.LoadBaseline(*baselineFile)
		if err != nil {
			fatal(err)
		}
	}

	if *debt {
		os.Exit(runDebt(dirs, baseline))
	}

	cfg := lint.Config{DeterministicAll: *detAll, RelativeTo: *relTo}
	if *rules != "" {
		cfg.Rules = strings.Split(*rules, ",")
	}
	diags, err := lint.Analyze(dirs, cfg)
	if err != nil {
		fatal(err)
	}

	if *explainID != "" {
		os.Exit(explain(diags, *explainID))
	}

	if *sarifOut != "" {
		// The artifact records every finding, baselined or not: the debt
		// stays visible to annotation tooling even when the gate passes.
		sarif, err := lint.FormatSARIF(diags)
		if err != nil {
			fatal(err)
		}
		if dir := filepath.Dir(*sarifOut); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatal(err)
			}
		}
		if err := os.WriteFile(*sarifOut, []byte(sarif), 0o644); err != nil {
			fatal(err)
		}
	}

	report := diags
	var stale []string
	if baseline != nil {
		report, stale = baseline.Apply(diags)
	}

	if *jsonOut {
		out, err := lint.FormatJSON(report)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	} else {
		fmt.Print(lint.FormatText(report))
	}
	for _, id := range stale {
		fmt.Fprintf(os.Stderr, "sftlint: baseline entry %s no longer matches any finding — delete it from the baseline\n", id)
	}
	if len(report) > 0 || len(stale) > 0 {
		os.Exit(1)
	}
}

// explain prints the finding(s) whose ID starts with the given prefix,
// including the call-path witness. Exit 0 when found, 2 when not.
func explain(diags []lint.Diagnostic, prefix string) int {
	found := false
	for _, d := range diags {
		if !strings.HasPrefix(d.ID, prefix) {
			continue
		}
		found = true
		fmt.Printf("%s\n  id: %s\n", d.String(), d.ID)
		if len(d.Witness) == 0 {
			fmt.Println("  (syntactic finding: the flagged line is the whole story)")
			continue
		}
		for _, w := range d.Witness {
			fmt.Println("  " + w)
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "sftlint: no finding with id prefix %q\n", prefix)
		return 2
	}
	return 0
}

// runDebt prints the suppression-debt tally and, when a baseline is given,
// fails on drift from its pinned counts.
func runDebt(dirs []string, baseline *lint.Baseline) int {
	counts, err := lint.Debt(dirs)
	if err != nil {
		fatal(err)
	}
	fmt.Print(lint.DebtReport(counts, baseline))
	if baseline == nil {
		return 0
	}
	errs := lint.CompareDebt(counts, baseline)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "sftlint:", e)
	}
	if len(errs) > 0 {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sftlint:", err)
	os.Exit(2)
}
