// Package lint is sftlint's engine: repo-specific static analysis rules
// that turn this repository's determinism and correctness conventions into
// machine-checked gates. It is built entirely on the standard library
// (go/parser, go/types, go/importer) per the no-external-deps design rule.
//
// Rules:
//
//	wallclock  - no time.Now/Since/Until and no global math/rand functions in
//	             deterministic pipeline packages; RNGs must be seeded
//	             explicitly (derive per-task seeds via par.SeedFor).
//	maporder   - no iteration over a map that accumulates ordered output or
//	             assigns order-dependent state, unless the keys are sorted
//	             immediately afterwards or the site carries a justified
//	             //lint:ordered comment.
//	metricname - obs.C/G/H registrations must use literal names of the form
//	             package.snake_case, with the first segment equal to the
//	             registering package's name.
//	cachekey   - no string-typed key instantiation of par.Cache/par.NewCache
//	             (protects the zero-alloc maphash.Comparable sharding).
//	nodemut    - outside internal/circuit, circuit nodes must be mutated via
//	             the journal-touching Circuit methods, never by direct field
//	             writes (protects the incremental-resynthesis contract).
//
// Sites that are deliberately order-independent are suppressed with a
// justification comment on the for statement (or the line above):
//
//	//lint:ordered <why iteration order cannot affect results>
package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one rule violation. ID is stable across unrelated edits
// (rule + file + message hash for syntactic rules, rule + entry + sink hash
// for interprocedural ones) so the baseline survives line-number churn.
// Witness, present on interprocedural findings, is the call path from the
// seam to the violating statement.
type Diagnostic struct {
	File    string   `json:"file"`
	Line    int      `json:"line"`
	Col     int      `json:"col"`
	Rule    string   `json:"rule"`
	Msg     string   `json:"message"`
	ID      string   `json:"id"`
	Witness []string `json:"witness,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Rule, d.Msg)
}

// Config selects rules and scopes.
type Config struct {
	// Rules restricts the run to the named rules; empty means all.
	Rules []string

	// DeterministicAll treats every analyzed package as a deterministic
	// pipeline package, regardless of import path. Used on the injected-
	// violation fixtures, whose paths live under testdata/.
	DeterministicAll bool

	// RelativeTo, when set, rewrites diagnostic file paths relative to this
	// directory (stable golden files and CI output).
	RelativeTo string
}

// AllRules lists every rule name, in reporting order. purity and sharedmut
// (and the transitive half of wallclock) are interprocedural: they run on a
// whole-module call graph rather than per file.
func AllRules() []string {
	return []string{"wallclock", "maporder", "metricname", "cachekey", "nodemut", "purity", "sharedmut"}
}

func (cfg Config) ruleEnabled(name string) bool {
	if len(cfg.Rules) == 0 {
		return true
	}
	for _, r := range cfg.Rules {
		if r == name {
			return true
		}
	}
	return false
}

// nondeterministicPkgs are module packages exempt from the wallclock rule:
// observability and offline tooling legitimately read the wall clock.
// Everything else in the module is pipeline code whose results must be a
// pure function of (inputs, options, seed).
var nondeterministicPkgs = []string{
	"internal/obs",     // wall-clock telemetry is its whole job
	"internal/metric",  // registry substrate under obs (snapshot formatting sorts its output)
	"internal/obsdiff", // offline report diffing
	"internal/lint",    // this analyzer
	"cmd/",             // command mains time and report their own runs
	"scripts/",
}

func (cfg Config) deterministic(pkgPath, modPath string) bool {
	if cfg.DeterministicAll {
		return true
	}
	rel, ok := strings.CutPrefix(pkgPath, modPath+"/")
	if !ok {
		return pkgPath == modPath // the root package is pipeline code
	}
	for _, p := range nondeterministicPkgs {
		if rel == strings.TrimSuffix(p, "/") || strings.HasPrefix(rel, p) {
			return false
		}
	}
	return true
}

// Analyze loads every directory and runs the configured rules, returning
// normalized (deduplicated, position-sorted) diagnostics. The syntactic
// rules run per package; the interprocedural rules (purity, sharedmut, the
// transitive half of wallclock) run once on a call graph spanning every
// loaded package, reporting only on the requested ones. The returned error
// reports load or type-check failures, which are distinct from findings: a
// package that does not compile cannot be certified.
func Analyze(dirs []string, cfg Config) ([]Diagnostic, error) {
	if len(dirs) == 0 {
		return nil, fmt.Errorf("lint: no packages to analyze")
	}
	l, err := NewLoader(dirs[0])
	if err != nil {
		return nil, err
	}
	var requested []*Package
	for _, dir := range dirs {
		p, err := l.Load(dir)
		if err != nil {
			return nil, err
		}
		requested = append(requested, p)
	}
	var diags []Diagnostic
	for _, p := range requested {
		diags = append(diags, analyzePackage(l, p, cfg)...)
	}
	diags = append(diags, analyzeInterproc(l, requested, cfg)...)
	for i := range diags {
		if cfg.RelativeTo != "" {
			if rel, ok := strings.CutPrefix(diags[i].File, cfg.RelativeTo+"/"); ok {
				diags[i].File = rel
			}
			diags[i].Witness = relativizeWitness(diags[i].Witness, cfg.RelativeTo)
		}
		if diags[i].ID == "" {
			// Syntactic rules: rule + file + message hash. Line-independent,
			// so reformatting does not invalidate the baseline.
			diags[i].ID = fmt.Sprintf("%s/%s/%08x", diags[i].Rule, diags[i].File, fnv32a(diags[i].Msg))
		}
	}
	return Normalize(diags), nil
}

func analyzePackage(l *Loader, p *Package, cfg Config) []Diagnostic {
	r := &runner{l: l, p: p, cfg: cfg}
	if cfg.ruleEnabled("wallclock") && cfg.deterministic(p.Path, l.ModPath) {
		r.wallclock()
	}
	if cfg.ruleEnabled("maporder") && cfg.deterministic(p.Path, l.ModPath) {
		r.maporder()
	}
	if cfg.ruleEnabled("metricname") {
		r.metricname()
	}
	if cfg.ruleEnabled("cachekey") {
		r.cachekey()
	}
	if cfg.ruleEnabled("nodemut") && p.Path != l.ModPath+"/internal/circuit" {
		r.nodemut()
	}
	return r.diags
}

// runner accumulates one package's diagnostics.
type runner struct {
	l     *Loader
	p     *Package
	cfg   Config
	diags []Diagnostic
}

func (r *runner) report(pos token.Pos, rule, format string, args ...any) {
	position := r.p.Fset.Position(pos)
	r.diags = append(r.diags, Diagnostic{
		File: position.Filename,
		Line: position.Line,
		Col:  position.Column,
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Normalize sorts diagnostics by (file, line, col, rule, message) and drops
// exact duplicates, making every output format byte-stable across runs. Two
// call paths reaching the same sink through different seams are distinct
// findings (different IDs and witnesses) and both survive.
func Normalize(ds []Diagnostic) []Diagnostic {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].File != ds[j].File {
			return ds[i].File < ds[j].File
		}
		if ds[i].Line != ds[j].Line {
			return ds[i].Line < ds[j].Line
		}
		if ds[i].Col != ds[j].Col {
			return ds[i].Col < ds[j].Col
		}
		if ds[i].Rule != ds[j].Rule {
			return ds[i].Rule < ds[j].Rule
		}
		if ds[i].Msg != ds[j].Msg {
			return ds[i].Msg < ds[j].Msg
		}
		return ds[i].ID < ds[j].ID
	})
	out := ds[:0]
	for i, d := range ds {
		if i > 0 && d.File == out[len(out)-1].File && d.Line == out[len(out)-1].Line &&
			d.Col == out[len(out)-1].Col && d.Rule == out[len(out)-1].Rule &&
			d.Msg == out[len(out)-1].Msg && d.ID == out[len(out)-1].ID {
			continue
		}
		out = append(out, d)
	}
	return out
}

// FormatText renders diagnostics one per line, witnesses indented below.
func FormatText(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d.String())
		b.WriteByte('\n')
		for _, w := range d.Witness {
			b.WriteString("    ")
			b.WriteString(w)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// FormatJSON renders diagnostics as a JSON array (obsdiff-style tooling
// input). The output is deterministic: diagnostics arrive sorted.
func FormatJSON(ds []Diagnostic) (string, error) {
	if ds == nil {
		ds = []Diagnostic{}
	}
	out, err := json.MarshalIndent(ds, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}

// metricNameRe is the registry naming convention, package.snake_case. It
// also guarantees a clean Prometheus rendering (PromName only has to turn
// dots into underscores, never mangle). This is the single home of the
// convention; internal/obs's lint test invokes this rule.
var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z0-9_]+)+$`)

// MetricNamePattern exposes the naming convention for tests and docs.
func MetricNamePattern() string { return metricNameRe.String() }
