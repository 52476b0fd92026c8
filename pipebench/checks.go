package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/routing"
	"repro/internal/synth"
)

// golden pins, per pattern at server-default options (seed 1, Restarts=4,
// degree 5, 4 procs/switch), the SaveDesign SHA-256 and the figures that
// must repeat exactly from run to run. The offline entries also pin the
// Figure 7 and Figure 8 ratios. Regenerate with `--write-golden` only when
// a change is meant to alter the designs.
//
//go:embed golden.json
var goldenJSON []byte

type goldenEntry struct {
	SHA256         string  `json:"sha256"`
	Links          int     `json:"links"`
	AreaVsMesh     float64 `json:"area_vs_mesh,omitempty"`
	ExecVsCrossbar float64 `json:"exec_vs_crossbar,omitempty"`
}

func loadGolden() (map[string]goldenEntry, error) {
	g := make(map[string]goldenEntry)
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// checkGolden compares a design with its pinned entry. Patterns without an
// entry (seeded variants) are checked only for repeatability by callers.
func checkGolden(g map[string]goldenEntry, name, sha string, links int) error {
	want, ok := g[name]
	if !ok {
		return nil
	}
	if want.SHA256 != sha {
		return fmt.Errorf("%s: design sha256 %s, golden %s", name, sha, want.SHA256)
	}
	if want.Links != links {
		return fmt.Errorf("%s: %d links, golden %d", name, links, want.Links)
	}
	return nil
}

func checkRatio(name, what string, got, want float64) error {
	if want != 0 && got != want {
		return fmt.Errorf("%s: %s %v, golden %v", name, what, got, want)
	}
	if math.IsNaN(got) || got <= 0 {
		return fmt.Errorf("%s: %s is %v", name, what, got)
	}
	return nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// contention is the pattern-side half of the Theorem 1 check: the flow
// index and the contention relation C, derived from the pattern's maximum
// cliques.
type contention struct {
	flows []model.Flow
	ix    *model.FlowIndex
	c     *model.ConflictMatrix
}

func newContention(p *model.Pattern, cliques []model.Clique) *contention {
	flows := p.Flows()
	ix := model.NewFlowIndex(flows)
	return &contention{flows: flows, ix: ix, c: model.ConflictMatrixFromCliques(ix, cliques)}
}

// theorem1 re-derives C ∩ R = ∅ from the design's raw routes: R comes from
// the routing table's per-hop link assignments, independently of the
// synthesizer's own verdict. Every pattern flow must be routed.
func (ct *contention) theorem1(table *routing.Table) error {
	if err := table.Validate(); err != nil {
		return fmt.Errorf("routing table: %w", err)
	}
	for _, f := range ct.flows {
		if _, ok := table.Routes[f]; !ok {
			return fmt.Errorf("flow %v has no route", f)
		}
	}
	if ok, w := model.ContentionFreeBits(ct.c, table.ConflictMatrix(ct.ix)); !ok {
		return fmt.Errorf("Theorem 1 violated: %d contending flow pairs share a channel, first %v", len(w), w[0])
	}
	return nil
}

// servedDesign is what the checks need from a /v1/design response body.
type servedDesign struct {
	PatternHash    string          `json:"pattern_hash"`
	ConstraintsMet bool            `json:"constraints_met"`
	ContentionFree bool            `json:"contention_free"`
	Links          int             `json:"links"`
	Design         json.RawMessage `json:"design"`
	Stats          synth.Stats     `json:"stats"`
	Report         struct {
		Spans []struct {
			Name    string `json:"name"`
			TotalNs int64  `json:"total_ns"`
		} `json:"spans"`
	} `json:"report"`
}

// checkServed parses a response body, verifies its verdicts and Theorem 1,
// and returns the design's SaveDesign SHA-256 (the design is loaded and
// saved again, so the digest matches the offline SaveDesign bytes).
func checkServed(body []byte, ct *contention) (*servedDesign, string, error) {
	var d servedDesign
	if err := json.Unmarshal(body, &d); err != nil {
		return nil, "", fmt.Errorf("decoding response: %w", err)
	}
	if !d.ConstraintsMet || !d.ContentionFree {
		return nil, "", fmt.Errorf("design verdicts: constraints_met=%t contention_free=%t", d.ConstraintsMet, d.ContentionFree)
	}
	net, table, err := synth.LoadDesign(bytes.NewReader(d.Design))
	if err != nil {
		return nil, "", fmt.Errorf("loading served design: %w", err)
	}
	if net.TotalLinks() != d.Links {
		return nil, "", fmt.Errorf("response says %d links, design has %d", d.Links, net.TotalLinks())
	}
	if err := ct.theorem1(table); err != nil {
		return nil, "", err
	}
	var buf bytes.Buffer
	if err := synth.SaveDesign(&buf, net, table); err != nil {
		return nil, "", fmt.Errorf("re-saving served design: %w", err)
	}
	return &d, digest(buf.Bytes()), nil
}

// synthRunNs is the synthesis time the server recorded in the response's
// embedded RunReport.
func (d *servedDesign) synthRunNs() (int64, error) {
	for _, s := range d.Report.Spans {
		if s.Name == "synth.run" {
			return s.TotalNs, nil
		}
	}
	return 0, errors.New("response report has no synth.run span")
}
