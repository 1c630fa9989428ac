package fidelity

import (
	"encoding/json"
	"fmt"
	"sort"

	"smistudy/internal/experiments"
)

// BenchDelta is one baseline-vs-new comparison of a recorded sweep.
type BenchDelta struct {
	Name    string  `json:"name"`
	Workers int     `json:"workers"`
	Metric  string  `json:"metric"`
	Old     float64 `json:"old"`
	New     float64 `json:"new"`
	// Pct is the relative change in percent (positive = regression).
	Pct  float64 `json:"pct"`
	Pass bool    `json:"pass"`
}

// BenchComparison is the outcome of a bench-regression check.
type BenchComparison struct {
	TolPct float64      `json:"tol_pct"`
	Deltas []BenchDelta `json:"deltas"`
	Failed int          `json:"failed"`
}

// Ok reports whether no entry regressed beyond tolerance.
func (c BenchComparison) Ok() bool { return c.Failed == 0 && len(c.Deltas) > 0 }

// CompareBench judges a fresh BenchReport against the committed
// baseline: per-entry wall time and allocation counts must not regress
// by more than tolPct percent, and per-entry cell throughput
// (cells_per_sec) must not drop by more than tolPct percent.
// Improvements always pass — the gate is one-sided, because
// CI runners are slower some days and faster others, and only the bad
// direction is a signal worth failing on. A sweep name present on one
// side only fails (a renamed or dropped sweep would silently exit the
// regression gate otherwise); an individual worker count present on one
// side only is skipped, because the parallel worker count follows the
// measuring machine's CPU count. Both reports must hold at most one row
// per (name, workers); LoadBenchReport enforces that.
func CompareBench(baseline, fresh experiments.BenchReport, tolPct float64) BenchComparison {
	cmp := BenchComparison{TolPct: tolPct}
	oldByKey := map[benchKey]experiments.BenchEntry{}
	oldNames := map[string]bool{}
	for _, e := range baseline.Sweeps {
		oldByKey[benchKey{e.Name, e.Workers}] = e
		oldNames[e.Name] = true
	}
	newNames := map[string]bool{}
	judge := func(e experiments.BenchEntry, metric string, old, new float64) {
		pct := 0.0
		if old > 0 {
			pct = (new - old) / old * 100
		}
		cmp.Deltas = append(cmp.Deltas, BenchDelta{
			Name: e.Name, Workers: e.Workers, Metric: metric,
			Old: old, New: new, Pct: pct, Pass: pct <= tolPct,
		})
	}
	for _, e := range fresh.Sweeps {
		newNames[e.Name] = true
		old, ok := oldByKey[benchKey{e.Name, e.Workers}]
		if !ok {
			if !oldNames[e.Name] {
				cmp.Deltas = append(cmp.Deltas, BenchDelta{Name: e.Name, Workers: e.Workers,
					Metric: "missing-in-baseline", New: e.WallMS})
			}
			continue
		}
		judge(e, "wall_ms", old.WallMS, e.WallMS)
		judge(e, "mallocs", float64(old.Mallocs), float64(e.Mallocs))
		// Throughput regresses downward, so the sign flips: a drop in
		// cells/sec is the positive-percent direction the gate fails on.
		// Baselines recorded before the counter existed hold zero and are
		// skipped rather than judged against a meaningless denominator.
		if old.CellsPerSec > 0 {
			judge(e, "cells_per_sec_drop", old.CellsPerSec, e.CellsPerSec)
			d := &cmp.Deltas[len(cmp.Deltas)-1]
			d.Pct = -d.Pct
			d.Pass = d.Pct <= tolPct
		}
	}
	for _, e := range baseline.Sweeps {
		if !newNames[e.Name] {
			cmp.Deltas = append(cmp.Deltas, BenchDelta{Name: e.Name, Workers: e.Workers,
				Metric: "missing-in-new", Old: e.WallMS})
			newNames[e.Name] = true // report each dropped sweep once
		}
	}
	// The engine churn probe is the tightest invariant in the file: the
	// free list holds steady-state allocations per event at zero, and
	// any nonzero value is a leak of the zero-alloc property, not noise.
	cmp.Deltas = append(cmp.Deltas, BenchDelta{
		Name: "engine", Metric: "event_allocs",
		Old: baseline.EngineEventAllocs, New: fresh.EngineEventAllocs,
		Pass: fresh.EngineEventAllocs <= baseline.EngineEventAllocs,
	})
	for _, d := range cmp.Deltas {
		if !d.Pass {
			cmp.Failed++
		}
	}
	return cmp
}

// Render prints the comparison with the worst offenders first.
func (c BenchComparison) Render() string {
	sorted := append([]BenchDelta(nil), c.Deltas...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Pct > sorted[j].Pct })
	out := fmt.Sprintf("Bench regression check (tolerance +%g%% per entry): %d comparisons, %d failed\n",
		c.TolPct, len(c.Deltas), c.Failed)
	n := len(sorted)
	if n > 10 {
		n = 10
	}
	out += "Worst offenders:\n"
	for _, d := range sorted[:n] {
		status := "ok"
		if !d.Pass {
			status = "FAIL"
		}
		out += fmt.Sprintf("  %-20s w=%d %-12s %12.2f → %12.2f  %+7.2f%%  %s\n",
			d.Name, d.Workers, d.Metric, d.Old, d.New, d.Pct, status)
	}
	return out
}

// JSON serializes the comparison.
func (c BenchComparison) JSON() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// benchKey identifies one row of a bench report.
type benchKey struct {
	name    string
	workers int
}

// LoadBenchReport parses a BENCH_sweeps.json document. A report with
// two rows for one (name, workers) is rejected: CompareBench matches
// rows by that key, so a duplicate would silently stand in for its twin.
func LoadBenchReport(data []byte) (experiments.BenchReport, error) {
	var r experiments.BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("fidelity: parse bench report: %w", err)
	}
	if len(r.Sweeps) == 0 {
		return r, fmt.Errorf("fidelity: bench report has no sweep entries")
	}
	seen := map[benchKey]bool{}
	for _, e := range r.Sweeps {
		k := benchKey{e.Name, e.Workers}
		if seen[k] {
			return r, fmt.Errorf("fidelity: bench report has two rows for %s at workers=%d", e.Name, e.Workers)
		}
		seen[k] = true
	}
	return r, nil
}
