// Package trace reports where CPU time really went — the paper's warning
// to performance-tool developers made concrete.
//
// A kernel (like a real one) charges each task for the wall time it
// occupied a CPU, System Management Mode included, because SMM is
// invisible to system software. The simulator additionally knows the
// ground truth. Attribution pairs the two views per task, quantifying
// exactly the misattribution a profiler on the paper's machines would
// commit.
package trace

import (
	"fmt"

	"smistudy/internal/cluster"
	"smistudy/internal/kernel"
	"smistudy/internal/metrics"
	"smistudy/internal/sim"
)

// TaskSample is one task's two views of its CPU time.
type TaskSample struct {
	Name     string
	PID      int
	OSTime   sim.Time // what the kernel (or any profiler) reports
	TrueTime sim.Time // what the task actually got
	Stolen   sim.Time // OSTime − TrueTime: SMM residency misattributed
	// Anomalous marks a snapshot where kernel accounting lagged ground
	// truth (OSTime < TrueTime, e.g. a task sampled mid-update). Stolen
	// is clamped to zero for such samples instead of going negative.
	Anomalous bool
}

// StolenPct reports the fraction of the OS-reported time that was
// actually SMM residency, in percent.
func (s TaskSample) StolenPct() float64 {
	if s.OSTime == 0 {
		return 0
	}
	return float64(s.Stolen) / float64(s.OSTime) * 100
}

// Attribution is a node-level misattribution report.
type Attribution struct {
	Tasks       []TaskSample
	TotalOS     sim.Time
	TotalTrue   sim.Time
	TotalStolen sim.Time
	// SMMResidency is the controller's ground-truth total; the stolen
	// time across tasks is bounded by residency × busy CPUs.
	SMMResidency sim.Time
	// Anomalies counts tasks whose accounting lagged ground truth at
	// snapshot time (see TaskSample.Anomalous).
	Anomalies int
}

// Attribute builds the report for the given tasks on a node.
func Attribute(node *cluster.Node, tasks []*kernel.Task) Attribution {
	var a Attribution
	for _, t := range tasks {
		s := sampleTask(t.Name(), t.PID(), t.UTime(), t.TrueCPUTime())
		if s.Anomalous {
			a.Anomalies++
		}
		a.Tasks = append(a.Tasks, s)
		a.TotalOS += s.OSTime
		a.TotalTrue += s.TrueTime
		a.TotalStolen += s.Stolen
	}
	a.SMMResidency = node.SMM.Stats().TotalResidency
	return a
}

// sampleTask builds one TaskSample. Stolen time is OSTime − TrueTime;
// a negative difference cannot happen physically (the kernel charges at
// least the time the task progressed), so it is clamped to zero and the
// sample flagged rather than skewing totals downward.
func sampleTask(name string, pid int, osTime, trueTime sim.Time) TaskSample {
	s := TaskSample{Name: name, PID: pid, OSTime: osTime, TrueTime: trueTime}
	s.Stolen = s.OSTime - s.TrueTime
	if s.Stolen < 0 {
		s.Stolen = 0
		s.Anomalous = true
	}
	return s
}

// Table renders the report as an aligned text table.
func (a Attribution) Table() string {
	tab := metrics.NewTable("task", "pid", "os-reported", "true", "stolen", "stolen%")
	for _, s := range a.Tasks {
		tab.AddRow(s.Name, s.PID, s.OSTime.String(), s.TrueTime.String(), s.Stolen.String(), s.StolenPct())
	}
	tab.AddRow("TOTAL", "", a.TotalOS.String(), a.TotalTrue.String(), a.TotalStolen.String(),
		func() float64 {
			if a.TotalOS == 0 {
				return 0
			}
			return float64(a.TotalStolen) / float64(a.TotalOS) * 100
		}())
	return tab.String() + fmt.Sprintf("node SMM residency (ground truth): %v\n", a.SMMResidency)
}
