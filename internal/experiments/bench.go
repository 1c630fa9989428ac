package experiments

import (
	"encoding/json"
	"runtime"
	"time"

	"smistudy/internal/runner"
	"smistudy/internal/sim"
)

// Bench harness: the recorded perf baseline behind BENCH_sweeps.json.
// Each table/figure sweep runs at quick scale once per requested worker
// count, measuring wall time, heap churn and cell throughput. A final
// entry measures the sim engine's steady-state allocations per
// scheduled event (the free list should hold this at zero). The JSON
// this produces is committed under results/ so later optimization work
// has a trajectory to diff against.

// BenchEntry is one measured sweep (or the engine churn probe).
type BenchEntry struct {
	Name       string  `json:"name"`
	Workers    int     `json:"workers"`
	WallMS     float64 `json:"wall_ms"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	// Cells counts the scenario cells the sweep dispatched; Events the
	// discrete engine events those cells processed (zero for sweeps
	// that bypass the scenario path).
	Cells  int64 `json:"cells"`
	Events int64 `json:"events"`
	// CellsPerSec is the sweep's cell throughput — the quantity the
	// bench comparator gates one-sidedly.
	CellsPerSec float64 `json:"cells_per_sec"`
}

// BenchReport is the full harness output.
type BenchReport struct {
	GoMaxProcs    int          `json:"gomaxprocs"`
	Quick         bool         `json:"quick"`
	Seed          int64        `json:"seed"`
	Sweeps        []BenchEntry `json:"sweeps"`
	EngineEventNS float64      `json:"engine_event_ns"`
	// EngineEventAllocs is allocations per steady-state schedule+fire
	// on a warm engine; the event free list keeps this at 0.
	EngineEventAllocs float64 `json:"engine_event_allocs"`
}

// ToJSON renders the report as indented JSON.
func (r BenchReport) ToJSON() (string, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}

// benchSweepSuite lists the sweeps the harness times. Each returns only
// an error: results are discarded, the subject is the sweep machinery.
func benchSweepSuite() []struct {
	name string
	fn   func(Config) error
} {
	return []struct {
		name string
		fn   func(Config) error
	}{
		{"table1", func(c Config) error { _, err := Table1(c); return err }},
		{"table4", func(c Config) error { _, err := Table4(c); return err }},
		{"figure1_convolve", func(c Config) error { _, err := Figure1Convolve(c); return err }},
		{"figure2_unixbench", func(c Config) error { _, err := Figure2UnixBench(c); return err }},
		{"fault_study", func(c Config) error { _, err := FaultStudy(c); return err }},
		{"amplification", func(c Config) error { _, err := AmplificationStudy(c); return err }},
		{"steady_state_ep", func(c Config) error { _, err := SteadyStateEP(c); return err }},
	}
}

// BenchSweeps runs every sweep in the suite once per worker count in
// workerSets, at quick scale, and measures the engine's per-event cost.
func BenchSweeps(cfg Config, workerSets []int) (BenchReport, error) {
	rep := BenchReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Quick:      true,
		Seed:       cfg.Seed,
	}
	cfg.Quick = true
	for _, bc := range benchSweepSuite() {
		for _, w := range workerSets {
			c := cfg
			c.Workers = w
			st := &runner.ExecStats{}
			c.Stats = st
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			if err := bc.fn(c); err != nil {
				return BenchReport{}, err
			}
			wall := time.Since(start)
			runtime.ReadMemStats(&after)
			entry := BenchEntry{
				Name:       bc.name,
				Workers:    w,
				WallMS:     float64(wall.Microseconds()) / 1000,
				Mallocs:    after.Mallocs - before.Mallocs,
				AllocBytes: after.TotalAlloc - before.TotalAlloc,
				Cells:      st.CellsValue(),
				Events:     st.EventsValue(),
			}
			if secs := wall.Seconds(); secs > 0 {
				entry.CellsPerSec = float64(entry.Cells) / secs
			}
			rep.Sweeps = append(rep.Sweeps, entry)
		}
	}
	rep.EngineEventNS, rep.EngineEventAllocs = sim.MeasureEventCost()
	return rep, nil
}
