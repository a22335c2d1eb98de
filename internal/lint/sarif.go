package lint

import (
	"encoding/json"
	"fmt"
	"sort"
)

// SARIF 2.1.0 output, the minimal profile code-annotation services consume:
// one run, one tool, per-rule metadata, and one result per diagnostic with a
// physical location, a stable partial fingerprint (the diagnostic ID), and —
// for interprocedural findings — the call-path witness as a code flow.
// Hand-rolled structs rather than a schema dependency, per the module's
// zero-deps rule; the subset below validates against the 2.1.0 schema.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string          `json:"name"`
	InformationURI string          `json:"informationUri,omitempty"`
	Rules          []sarifRuleMeta `json:"rules"`
}

type sarifRuleMeta struct {
	ID               string        `json:"id"`
	ShortDescription sarifMultifmt `json:"shortDescription"`
}

type sarifMultifmt struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID              string            `json:"ruleId"`
	RuleIndex           int               `json:"ruleIndex"`
	Level               string            `json:"level"`
	Message             sarifMultifmtMsg  `json:"message"`
	Locations           []sarifLocation   `json:"locations"`
	PartialFingerprints map[string]string `json:"partialFingerprints"`
	CodeFlows           []sarifCodeFlow   `json:"codeFlows,omitempty"`
}

type sarifMultifmtMsg struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

type sarifCodeFlow struct {
	ThreadFlows []sarifThreadFlow `json:"threadFlows"`
}

type sarifThreadFlow struct {
	Locations []sarifThreadFlowLoc `json:"locations"`
}

type sarifThreadFlowLoc struct {
	Location sarifFlowLocation `json:"location"`
}

type sarifFlowLocation struct {
	Message sarifMultifmtMsg `json:"message"`
}

// ruleDescriptions is the per-rule metadata embedded in the SARIF driver.
var ruleDescriptions = map[string]string{
	"wallclock":  "no wall-clock or global-RNG reads in deterministic pipeline packages, directly or through the call graph",
	"maporder":   "no order-dependent accumulation over map iteration without sorting or a //lint:ordered justification",
	"metricname": "metric registrations use literal package.snake_case names",
	"cachekey":   "no string-typed par.Cache keys (protects zero-alloc sharding)",
	"nodemut":    "circuit nodes are mutated only via journal-touching Circuit methods",
	"purity":     "functions handed to par fan-out/cache seams are transitively free of shared-state writes",
	"sharedmut":  "goroutine-captured variables are not written without a sync/channel/atomic barrier",
}

// FormatSARIF renders diagnostics as a SARIF 2.1.0 log. Rule metadata is
// emitted for every known rule (sorted), so ruleIndex is stable whether or
// not a run has findings for a rule.
func FormatSARIF(ds []Diagnostic) (string, error) {
	rules := AllRules()
	sort.Strings(rules)
	ruleIdx := map[string]int{}
	var metas []sarifRuleMeta
	for i, r := range rules {
		ruleIdx[r] = i
		metas = append(metas, sarifRuleMeta{
			ID:               r,
			ShortDescription: sarifMultifmt{Text: ruleDescriptions[r]},
		})
	}
	results := []sarifResult{}
	for _, d := range ds {
		idx, ok := ruleIdx[d.Rule]
		if !ok {
			return "", fmt.Errorf("lint: diagnostic with unknown rule %q", d.Rule)
		}
		res := sarifResult{
			RuleID:    d.Rule,
			RuleIndex: idx,
			Level:     "error",
			Message:   sarifMultifmtMsg{Text: d.Msg},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: d.File},
					Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Col},
				},
			}},
			PartialFingerprints: map[string]string{"sftlintId/v1": d.ID},
		}
		if len(d.Witness) > 0 {
			var locs []sarifThreadFlowLoc
			for _, w := range d.Witness {
				locs = append(locs, sarifThreadFlowLoc{
					Location: sarifFlowLocation{Message: sarifMultifmtMsg{Text: w}},
				})
			}
			res.CodeFlows = []sarifCodeFlow{{ThreadFlows: []sarifThreadFlow{{Locations: locs}}}}
		}
		results = append(results, res)
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "sftlint", Rules: metas}},
			Results: results,
		}},
	}
	out, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
