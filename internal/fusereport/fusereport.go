// Package fusereport defines the machine-readable barrier-fusibility
// report (schema lbmib-fuse/v1) produced by the phase-effect analyzer in
// internal/analysis and consumed by internal/perfsim's what-if estimator
// and the verification pipeline. It is deliberately free of go/types so
// consumers (perfsim, critpath, lbmib-profile) can import it without
// dragging the analyzer in.
//
// One Report covers every engine's barrier sites. For each site the
// analyzer records, per analyzed configuration scenario, whether a
// cross-thread effect conflict spans the site (the happens-before
// obligation the barrier discharges) and, when one does, the conflicting
// field and its stencil extent. The site's headline classification is:
//
//   - "required" — the site stands in at least one analyzed scenario and
//     a conflict spans it there; removing the barrier would break the
//     bitwise contract. The first such conflict names the field/stencil.
//   - "fusible" — every scenario in which the source folds the site away
//     (or could: no scenario conflicts at all) is proven conflict-free.
//
// A site that cannot be classified (the analyzer failed to extract its
// phases) is reported with an empty classification; lbmib-lint
// -fusibility exits non-zero on those, which is verify.sh's analyzer
// coverage gate.
package fusereport

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Schema identifies the report format. Bump it whenever the shape or the
// meaning of a field changes.
const Schema = "lbmib-fuse/v1"

// Classifications and per-scenario verdicts.
const (
	VerdictRequired = "required"
	VerdictFusible  = "fusible"
)

// Conflict is one cross-thread effect conflict spanning a barrier site:
// a write on one side of the site and an access of the same field on the
// other side that a different thread may perform.
type Conflict struct {
	Field   string `json:"field"`   // e.g. "node.Vel", "sheet.X", "node.DF[next]"
	Kind    string `json:"kind"`    // "write-read", "write-write", "read-write"
	Stencil string `json:"stencil"` // widest extent involved: "local", "neighbor", "gather", "all-threads"
	Before  string `json:"before"`  // phase/segment holding the earlier access
	After   string `json:"after"`   // phase/segment holding the later access
}

// ScenarioVerdict is the analysis of one site under one configuration
// scenario (a fixed assignment of the engine's feature guards).
type ScenarioVerdict struct {
	Scenario string `json:"scenario"` // e.g. "fibers+swap+minimal"
	// Active reports whether the source executes the barrier in this
	// scenario (false: the source folds it away here).
	Active    bool       `json:"active"`
	Verdict   string     `json:"verdict"` // "required" or "fusible"
	Conflicts []Conflict `json:"conflicts,omitempty"`
}

// Barrier is one barrier site of one engine.
type Barrier struct {
	Site string `json:"site"`
	// AfterPhase is the phase/segment immediately preceding the site —
	// the name perfsim's "merge barrier after <phase>" scenarios use.
	AfterPhase string `json:"afterPhase"`
	// Classification is the headline verdict (see package doc); empty
	// means the analyzer could not classify the site.
	Classification string `json:"classification"`
	// FoldCondition, for sites the source executes conditionally, is the
	// source-level condition under which the barrier runs (its negation
	// is the proven-safe fold).
	FoldCondition string `json:"foldCondition,omitempty"`
	// Conflicts holds the conflicts backing a "required" classification.
	Conflicts []Conflict        `json:"conflicts,omitempty"`
	Scenarios []ScenarioVerdict `json:"scenarios"`
}

// Engine is the report for one solver engine.
type Engine struct {
	Engine   string    `json:"engine"` // "cube", "omp", "fused"
	Barriers []Barrier `json:"barriers"`
}

// Report is the full fusibility report.
type Report struct {
	Schema  string   `json:"schema"`
	Engines []Engine `json:"engines"`
}

// Validate checks schema conformance: the version string, non-empty
// engines/sites, and legal verdict values. An empty classification is
// schema-legal (it encodes "unclassified") — use Unclassified to gate on
// it.
func (r *Report) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("fusereport: schema %q, want %q", r.Schema, Schema)
	}
	if len(r.Engines) == 0 {
		return fmt.Errorf("fusereport: no engines")
	}
	for _, e := range r.Engines {
		if e.Engine == "" {
			return fmt.Errorf("fusereport: engine with empty name")
		}
		if len(e.Barriers) == 0 {
			return fmt.Errorf("fusereport: engine %s: no barrier sites", e.Engine)
		}
		for _, b := range e.Barriers {
			if b.Site == "" {
				return fmt.Errorf("fusereport: engine %s: barrier with empty site", e.Engine)
			}
			switch b.Classification {
			case VerdictRequired, VerdictFusible, "":
			default:
				return fmt.Errorf("fusereport: %s/%s: bad classification %q", e.Engine, b.Site, b.Classification)
			}
			if b.Classification == VerdictRequired && len(b.Conflicts) == 0 {
				return fmt.Errorf("fusereport: %s/%s: required without a named conflict", e.Engine, b.Site)
			}
			for _, c := range b.Conflicts {
				if c.Field == "" || c.Stencil == "" {
					return fmt.Errorf("fusereport: %s/%s: conflict missing field or stencil", e.Engine, b.Site)
				}
			}
			for _, sv := range b.Scenarios {
				switch sv.Verdict {
				case VerdictRequired, VerdictFusible:
				default:
					return fmt.Errorf("fusereport: %s/%s: scenario %q: bad verdict %q",
						e.Engine, b.Site, sv.Scenario, sv.Verdict)
				}
			}
		}
	}
	return nil
}

// Unclassified returns every "engine/site" the analyzer failed to
// classify — the coverage-gate input.
func (r *Report) Unclassified() []string {
	var out []string
	for _, e := range r.Engines {
		for _, b := range e.Barriers {
			if b.Classification == "" {
				out = append(out, e.Engine+"/"+b.Site)
			}
		}
	}
	sort.Strings(out)
	return out
}

// FindEngine returns the named engine's report, or nil.
func (r *Report) FindEngine(name string) *Engine {
	for i := range r.Engines {
		if r.Engines[i].Engine == name {
			return &r.Engines[i]
		}
	}
	return nil
}

// Find returns the named site of the named engine, or nil.
func (r *Report) Find(engine, site string) *Barrier {
	e := r.FindEngine(engine)
	if e == nil {
		return nil
	}
	for i := range e.Barriers {
		if e.Barriers[i].Site == site {
			return &e.Barriers[i]
		}
	}
	return nil
}

// SiteAfterPhase returns the engine's site separating the named phase
// from the next one, or nil — the lookup perfsim's merge what-ifs use.
// When a phase contains interior (conditional) sites as well, the last
// match is the separator: merging the phase with its successor removes
// that one, not the interior sites.
func (e *Engine) SiteAfterPhase(phase string) *Barrier {
	if e == nil {
		return nil
	}
	var found *Barrier
	for i := range e.Barriers {
		if e.Barriers[i].AfterPhase == phase {
			found = &e.Barriers[i]
		}
	}
	return found
}

// Marshal renders the report as stable, indented JSON (trailing
// newline), so regeneration is byte-reproducible.
func (r *Report) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Write writes the report to path.
func (r *Report) Write(path string) error {
	data, err := r.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads and validates a report from path.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Decode parses and validates a report from bytes. It never panics,
// whatever the bytes are — the contract FuzzFusibilityReport enforces.
func Decode(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("fusereport: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
