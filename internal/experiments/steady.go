package experiments

import (
	"fmt"
	"strings"

	"smistudy/internal/durable"
	"smistudy/internal/metrics"
	"smistudy/internal/parsweep"
	"smistudy/internal/scenario"
)

// SteadyPoint is one steady-state EP scaling measurement.
type SteadyPoint struct {
	Nodes   int
	Seconds float64
}

// SteadyState is the regenerated SMM-off EP scaling column: the
// baseline the paper's Tables 1–3 percent-changes are computed against,
// isolated as its own sweep. Every cell is steady state (no SMM, no
// faults) with the full six repetitions, which makes it the bench
// harness's many-repetition, split-heavy entry.
type SteadyState struct {
	Points []SteadyPoint
}

// SteadyStateEP measures the EP class-A baseline over 1, 2 and 4 nodes
// at one rank per node. Unlike the table sweeps, Quick does not shrink
// the repetition count: a steady-state EP run costs well under a
// millisecond, so the full six stay cheap.
func SteadyStateEP(cfg Config) (SteadyState, error) {
	nodes := []int{1, 2, 4}
	runs := cfg.Runs
	if runs <= 0 {
		runs = 6
	}
	specs := make([]scenario.Spec, len(nodes))
	for i, n := range nodes {
		specs[i] = scenario.Spec{
			Workload: "nas",
			Machine:  scenario.Machine{Nodes: n, RanksPerNode: 1},
			SMM:      scenario.SMMPlan{SMIScale: cfg.SMIScale},
			Runs:     runs,
			Seed:     cfg.seed(),
			Params:   scenario.Params{Bench: "EP", Class: "A"},
		}
	}
	ms, errs, _ := durable.RunSpecs(cfg.ctx(), specs, cfg.durableOptions())
	if err := parsweep.FirstError(errs); err != nil {
		return SteadyState{}, err
	}
	st := SteadyState{Points: make([]SteadyPoint, len(ms))}
	for i, m := range ms {
		st.Points[i] = SteadyPoint{Nodes: nodes[i], Seconds: m.NAS.Seconds()}
	}
	return st, nil
}

// Render prints the scaling column.
func (s SteadyState) Render() string {
	var b strings.Builder
	b.WriteString("Steady-state EP.A scaling (no SMM)\n")
	tab := metrics.NewTable("nodes", "seconds")
	for _, p := range s.Points {
		tab.AddRow(p.Nodes, fmt.Sprintf("%.2f", p.Seconds))
	}
	b.WriteString(tab.String())
	return b.String()
}
