package trace

import (
	"strings"
	"testing"

	"smistudy/internal/cluster"
	"smistudy/internal/cpu"
	"smistudy/internal/kernel"
	"smistudy/internal/sim"
	"smistudy/internal/smm"
)

func TestAttributionUnderSMIs(t *testing.T) {
	e := sim.New(1)
	cl := cluster.MustNew(e, cluster.R410(smm.DriverConfig{
		Level: smm.SMMLong, PeriodJiffies: 1000, PhaseJitter: true,
	}))
	cl.StartSMI()
	node := cl.Nodes[0]
	var task *kernel.Task
	task = node.Kernel.Spawn("victim", cpu.Profile{CPI: 1}, func(tk *kernel.Task) {
		tk.Compute(2.4e9 * 5) // ~5s of work
		cl.Eng.Stop()
	})
	cl.Eng.Run()

	a := Attribute(node, []*kernel.Task{task})
	if len(a.Tasks) != 1 {
		t.Fatalf("tasks = %d", len(a.Tasks))
	}
	s := a.Tasks[0]
	if s.Stolen <= 0 {
		t.Fatalf("no stolen time despite long SMIs: %+v", s)
	}
	if s.OSTime != s.TrueTime+s.Stolen {
		t.Fatal("stolen arithmetic inconsistent")
	}
	// Stolen time must equal the SMM residency the task sat through
	// (sole task on the node → it ate all of it).
	if s.Stolen != a.SMMResidency {
		t.Fatalf("stolen %v != ground-truth residency %v", s.Stolen, a.SMMResidency)
	}
	if s.StolenPct() < 5 || s.StolenPct() > 20 {
		t.Fatalf("stolen%% = %.1f, want ≈10", s.StolenPct())
	}
}

func TestAttributionQuietNode(t *testing.T) {
	e := sim.New(1)
	cl := cluster.MustNew(e, cluster.R410(smm.DriverConfig{}))
	node := cl.Nodes[0]
	task := node.Kernel.Spawn("calm", cpu.Profile{CPI: 1}, func(tk *kernel.Task) {
		tk.Compute(1e9)
	})
	cl.Eng.Run()
	a := Attribute(node, []*kernel.Task{task})
	if a.TotalStolen != 0 {
		t.Fatalf("stolen time on a quiet node: %v", a.TotalStolen)
	}
	if a.Tasks[0].StolenPct() != 0 {
		t.Fatal("stolen pct should be 0")
	}
}

func TestAttributionTable(t *testing.T) {
	e := sim.New(1)
	cl := cluster.MustNew(e, cluster.R410(smm.DriverConfig{}))
	node := cl.Nodes[0]
	task := node.Kernel.Spawn("worker", cpu.Profile{CPI: 1}, func(tk *kernel.Task) {
		tk.Compute(1e8)
	})
	cl.Eng.Run()
	out := Attribute(node, []*kernel.Task{task}).Table()
	for _, want := range []string{"worker", "TOTAL", "ground truth"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestStolenPctZeroOS(t *testing.T) {
	if (TaskSample{}).StolenPct() != 0 {
		t.Fatal("zero OSTime should yield 0%")
	}
}

func TestSampleClampsNegativeStolen(t *testing.T) {
	// OSTime < TrueTime cannot happen physically (the kernel charges at
	// least the time the task progressed); a sample caught mid-update
	// must clamp to zero stolen time and be flagged, never go negative.
	s := sampleTask("odd", 7, 10*sim.Millisecond, 12*sim.Millisecond)
	if s.Stolen != 0 {
		t.Fatalf("stolen = %v, want clamped 0", s.Stolen)
	}
	if !s.Anomalous {
		t.Fatalf("anomaly not flagged: %+v", s)
	}
	if ok := sampleTask("fine", 8, 12*sim.Millisecond, 10*sim.Millisecond); ok.Anomalous || ok.Stolen != 2*sim.Millisecond {
		t.Fatalf("healthy sample misflagged: %+v", ok)
	}
}
