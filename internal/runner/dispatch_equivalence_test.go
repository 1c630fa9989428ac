package runner

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"smistudy/internal/scenario"
)

// TestScenarioDispatchEquivalence is the dispatch-equivalence table of
// the fast-path contract: every example scenario, run under -fastpath
// off and auto, serializes byte-identically — auto mode either declines
// (and simulation trivially matches) or serves with provably identical
// bytes. Scenarios whose runs fail (the faulted example) must fail
// identically under both modes.
func TestScenarioDispatchEquivalence(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			sp, err := scenario.Load(file)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			run := func(x Exec) ([]byte, string) {
				m, err := RunWith(sp, x)
				errStr := ""
				if err != nil {
					errStr = err.Error()
				}
				data, jerr := m.JSON()
				if jerr != nil {
					t.Fatalf("encode: %v", jerr)
				}
				return data, errStr
			}
			want, wantErr := run(Exec{Workers: 1})
			got, gotErr := run(Exec{Workers: 1, Dispatch: NewDispatcher(FastAuto, 0)})
			if gotErr != wantErr {
				t.Errorf("auto: error %q, want %q", gotErr, wantErr)
			}
			if !bytes.Equal(got, want) {
				t.Error("auto: measurement differs from the -fastpath off baseline")
			}
		})
	}
}

// TestScenarioModelResidual: on the steady-state example the opt-in
// approximate tier must land within the dispatcher's residual tolerance
// of the simulated baseline — the bound the certification gate enforces
// before any analytic serve.
func TestScenarioModelResidual(t *testing.T) {
	sp, err := scenario.Load(filepath.Join("..", "..", "examples", "scenarios", "steady-ep.json"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	base, err := RunWith(sp, Exec{Workers: 1})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	d := NewDispatcher(FastModel, 0)
	got, err := RunWith(sp, Exec{Workers: 1, Dispatch: d})
	if err != nil {
		t.Fatalf("model tier: %v", err)
	}
	if d.Stats().Hits == 0 {
		t.Fatalf("model tier declined the steady-state scenario: %+v", d.Stats().MissReasons)
	}
	if base.NAS == nil || got.NAS == nil {
		t.Fatalf("missing NAS sections")
	}
	logErr := math.Abs(math.Log(got.NAS.Seconds() / base.NAS.Seconds()))
	if limit := math.Log(1 + DefaultResidualTol); logErr > limit {
		t.Errorf("model residual |log err| = %.4f exceeds tolerance %.4f (model %.6fs vs simulated %.6fs)",
			logErr, limit, got.NAS.Seconds(), base.NAS.Seconds())
	}
}
