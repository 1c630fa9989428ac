package fidelity

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smistudy/internal/experiments"
)

// quickCfg is the fastest real validation: one artifact, one seed.
func quickCfg(only ...string) Config {
	return Config{Only: only, Seeds: []int64{1}, Workers: 2}
}

func TestValidateQuickTable2Passes(t *testing.T) {
	rep, err := Validate(quickCfg("table2"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("committed tree must pass:\n%s", rep.Render())
	}
	if rep.Failed != 0 || rep.Passed != len(rep.Checks) {
		t.Fatalf("counts inconsistent: %+v", rep)
	}
	kinds := map[string]bool{}
	for _, c := range rep.Checks {
		kinds[c.Kind] = true
	}
	for _, k := range []string{"band", "aggregate", "ordering"} {
		if !kinds[k] {
			t.Fatalf("table2 validation must include a %s gate", k)
		}
	}
}

// TestPerturbedPhysicsTrips is the harness's own acceptance criterion:
// doubling every SMI duration is a deliberate physics bug, and the
// tolerance gates must catch it.
func TestPerturbedPhysicsTrips(t *testing.T) {
	cfg := quickCfg("table2")
	cfg.SMIScale = 2
	rep, err := Validate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 {
		t.Fatalf("doubled long-SMI duration must trip the gates:\n%s", rep.Render())
	}
	var sawLongPct bool
	for _, c := range rep.Checks {
		if !c.Pass && strings.Contains(c.Name, "long_pct") {
			sawLongPct = true
		}
	}
	if !sawLongPct {
		t.Fatalf("the long-SMM impact bands should be what trips:\n%s", rep.Render())
	}
}

func TestValidateRejectsUnknownArtifact(t *testing.T) {
	if _, err := Validate(quickCfg("table9")); err == nil || !strings.Contains(err.Error(), "unknown artifact") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRejectsGoldenOnFullTier(t *testing.T) {
	cfg := quickCfg("table2")
	cfg.Full = true
	cfg.GoldenDir = t.TempDir()
	if _, err := Validate(cfg); err == nil || !strings.Contains(err.Error(), "quick tier") {
		t.Fatalf("err = %v", err)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep, err := Validate(quickCfg("faults"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Failed != rep.Failed || len(back.Checks) != len(rep.Checks) || back.Tier != rep.Tier {
		t.Fatalf("round trip changed the report: %+v vs %+v", back, *rep)
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := quickCfg("model")
	if err := UpdateGolden(cfg, dir, nil); err != nil {
		t.Fatal(err)
	}
	cfg.GoldenDir = dir
	rep, err := Validate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("freshly regenerated goldens must byte-match:\n%s", rep.Render())
	}
	// Corrupting the golden must fail the gate.
	path := filepath.Join(dir, "model.json")
	if err := os.WriteFile(path, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Validate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("corrupted golden must fail the byte-compare")
	}
	// A missing golden fails too — absent baselines are invisible drift.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	rep, err = Validate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("missing golden must fail the byte-compare")
	}
}

func benchReport(entries ...experiments.BenchEntry) experiments.BenchReport {
	return experiments.BenchReport{GoMaxProcs: 4, Quick: true, Sweeps: entries}
}

func TestCompareBench(t *testing.T) {
	base := benchReport(
		experiments.BenchEntry{Name: "table1", Workers: 1, WallMS: 100, Mallocs: 1000},
		experiments.BenchEntry{Name: "table1", Workers: 4, WallMS: 40, Mallocs: 1000},
	)
	// Within tolerance (and an improvement) passes.
	ok := benchReport(
		experiments.BenchEntry{Name: "table1", Workers: 1, WallMS: 110, Mallocs: 1000},
		experiments.BenchEntry{Name: "table1", Workers: 4, WallMS: 20, Mallocs: 900},
	)
	if cmp := CompareBench(base, ok, 15); !cmp.Ok() {
		t.Fatalf("within-tolerance run failed:\n%s", cmp.Render())
	}
	// A wall-time regression beyond tolerance fails.
	slow := benchReport(
		experiments.BenchEntry{Name: "table1", Workers: 1, WallMS: 130, Mallocs: 1000},
		experiments.BenchEntry{Name: "table1", Workers: 4, WallMS: 40, Mallocs: 1000},
	)
	if cmp := CompareBench(base, slow, 15); cmp.Ok() {
		t.Fatal("30% wall regression passed")
	}
	// Exactly at tolerance passes (boundary is inclusive).
	edge := benchReport(
		experiments.BenchEntry{Name: "table1", Workers: 1, WallMS: 115, Mallocs: 1000},
		experiments.BenchEntry{Name: "table1", Workers: 4, WallMS: 40, Mallocs: 1000},
	)
	if cmp := CompareBench(base, edge, 15); !cmp.Ok() {
		t.Fatalf("at-tolerance run failed:\n%s", cmp.Render())
	}
	// A dropped sweep name fails; a differing worker count does not.
	differentWorkers := benchReport(
		experiments.BenchEntry{Name: "table1", Workers: 1, WallMS: 100, Mallocs: 1000},
		experiments.BenchEntry{Name: "table1", Workers: 8, WallMS: 25, Mallocs: 1000},
	)
	if cmp := CompareBench(base, differentWorkers, 15); !cmp.Ok() {
		t.Fatalf("differing worker count must be tolerated:\n%s", cmp.Render())
	}
	dropped := benchReport(
		experiments.BenchEntry{Name: "renamed", Workers: 1, WallMS: 1, Mallocs: 1},
	)
	cmp := CompareBench(base, dropped, 15)
	if cmp.Ok() {
		t.Fatal("dropped sweep name passed")
	}
	// The engine zero-alloc invariant is absolute, not percentage-based.
	leak := benchReport(base.Sweeps...)
	leakRep := experiments.BenchReport{Sweeps: leak.Sweeps, EngineEventAllocs: 0.5}
	if cmp := CompareBench(base, leakRep, 15); cmp.Ok() {
		t.Fatal("engine alloc leak passed")
	}
}

func TestLoadBenchReport(t *testing.T) {
	if _, err := LoadBenchReport([]byte("not json")); err == nil {
		t.Fatal("garbage must fail")
	}
	if _, err := LoadBenchReport([]byte(`{"sweeps": []}`)); err == nil {
		t.Fatal("empty sweep list must fail")
	}
	if _, err := LoadBenchReport([]byte(`{"sweeps": [{"name":"x","workers":1,"wall_ms":1}]}`)); err != nil {
		t.Fatal(err)
	}
	// CompareBench keys rows by (name, workers): a second row with the
	// same key would replace its twin as the baseline, so it is refused.
	dup := `{"sweeps": [{"name":"x","workers":1,"wall_ms":1},{"name":"x","workers":4,"wall_ms":1},{"name":"x","workers":1,"wall_ms":2}]}`
	if _, err := LoadBenchReport([]byte(dup)); err == nil || !strings.Contains(err.Error(), "two rows for x at workers=1") {
		t.Fatalf("duplicate (name, workers) row: err = %v", err)
	}
	// The committed baseline loads, and compared with itself every row
	// is judged on wall time and mallocs, every row with a throughput on
	// cells/sec, and all of it passes.
	data, err := os.ReadFile(filepath.Join("..", "..", "results", "BENCH_sweeps.json"))
	if err != nil {
		t.Fatal(err)
	}
	base, err := LoadBenchReport(data)
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	cmp := CompareBench(base, base, 15)
	if !cmp.Ok() {
		t.Fatalf("baseline vs itself failed:\n%s", cmp.Render())
	}
	judged := map[string]int{}
	for _, d := range cmp.Deltas {
		judged[d.Metric]++
	}
	withRate := 0
	for _, e := range base.Sweeps {
		if e.CellsPerSec > 0 {
			withRate++
		}
	}
	for metric, want := range map[string]int{"wall_ms": len(base.Sweeps), "mallocs": len(base.Sweeps), "cells_per_sec_drop": withRate} {
		if judged[metric] != want {
			t.Errorf("%s judged on %d rows, want %d", metric, judged[metric], want)
		}
	}
}
