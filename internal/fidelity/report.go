package fidelity

import (
	"encoding/json"
	"fmt"
	"strings"

	"smistudy/internal/metrics"
)

// Check is one judged gate: a measured quantity against its acceptance
// criterion. Kind classifies the criterion so report consumers can
// filter structural gates (golden, bench) from physics gates (band,
// ordering, residual, aggregate).
type Check struct {
	Artifact string `json:"artifact"`
	// Name addresses the check inside the artifact ("EP.A.n1.r1 base_s").
	Name string `json:"name"`
	// Kind is band | ordering | residual | aggregate | golden | bench.
	Kind string `json:"kind"`
	// Got and Want are the measured and expected values (Want may be a
	// threshold rather than a target; Tol says which).
	Got  float64 `json:"got"`
	Want float64 `json:"want"`
	// Tol describes the acceptance criterion in words.
	Tol  string `json:"tol"`
	Pass bool   `json:"pass"`
	// Detail carries failure context (how far out, which cells).
	Detail string `json:"detail,omitempty"`
	// N and CI95 describe the sample behind Got when it was measured
	// across repeated seeds (zero otherwise).
	N    int     `json:"n,omitempty"`
	CI95 float64 `json:"ci95,omitempty"`
}

// Report is the machine-readable outcome of one validation run.
type Report struct {
	Tier      string   `json:"tier"`
	Seeds     []int64  `json:"seeds"`
	Runs      int      `json:"runs"`
	SMIScale  float64  `json:"smi_scale,omitempty"`
	Artifacts []string `json:"artifacts"`
	Checks    []Check  `json:"checks"`
	Passed    int      `json:"passed"`
	Failed    int      `json:"failed"`
}

func (r *Report) add(c Check) {
	r.Checks = append(r.Checks, c)
	if c.Pass {
		r.Passed++
	} else {
		r.Failed++
	}
}

// Ok reports whether the run judged at least one gate and failed none.
func (r *Report) Ok() bool { return r.Failed == 0 && len(r.Checks) > 0 }

// JSON serializes the report.
func (r Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ParseReport decodes a serialized report.
func ParseReport(data []byte) (Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("fidelity: parse report: %w", err)
	}
	return r, nil
}

// Render prints the human diff table: every check grouped by artifact,
// failures expanded with their detail lines at the end.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fidelity validation (%s tier, seeds %v, %d runs/cell): %d checks, %d failed\n\n",
		r.Tier, r.Seeds, r.Runs, len(r.Checks), r.Failed)
	tab := metrics.NewTable("artifact", "check", "kind", "got", "want", "tolerance", "status")
	for _, c := range r.Checks {
		status := "ok"
		if !c.Pass {
			status = "FAIL"
		}
		tab.AddRow(c.Artifact, c.Name, c.Kind, c.Got, c.Want, c.Tol, status)
	}
	b.WriteString(tab.String())
	if r.Failed > 0 {
		b.WriteString("\nFailures:\n")
		for _, c := range r.Checks {
			if c.Pass {
				continue
			}
			fmt.Fprintf(&b, "  %s / %s: got %.6g, want %.6g (%s)", c.Artifact, c.Name, c.Got, c.Want, c.Tol)
			if c.Detail != "" {
				fmt.Fprintf(&b, " — %s", c.Detail)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
