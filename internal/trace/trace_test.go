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

func TestRecorder(t *testing.T) {
	var r Recorder
	r.Record("smm", 10, 20)
	r.Record("compute", 0, 100)
	r.Record("smm", 50, 55)
	if len(r.Spans()) != 3 {
		t.Fatal("spans lost")
	}
	if got := r.TotalByLabel()["smm"]; got != 15 {
		t.Fatalf("smm total = %v, want 15", got)
	}
	ov := r.Overlapping(12, 18)
	if len(ov) != 2 {
		t.Fatalf("overlapping = %d, want 2 (smm + compute)", len(ov))
	}
	if (Span{Start: 3, End: 9}).Duration() != 6 {
		t.Fatal("duration wrong")
	}
	if len(r.Overlapping(200, 300)) != 0 {
		t.Fatal("phantom overlaps")
	}
}

func TestOverlappingBoundaries(t *testing.T) {
	var r Recorder
	r.Record("left", 0, 10)    // touches query start
	r.Record("right", 20, 30)  // touches query end
	r.Record("inside", 12, 18) // strictly inside
	r.Record("point", 15, 15)  // zero-length span inside
	r.Record("edge", 10, 10)   // zero-length span on the boundary

	// Half-open semantics: spans that merely touch an endpoint of
	// [10, 20) do not intersect it; zero-length spans strictly inside do.
	got := map[string]bool{}
	for _, s := range r.Overlapping(10, 20) {
		got[s.Label] = true
	}
	if got["left"] || got["right"] {
		t.Fatalf("touching spans reported as overlapping: %v", got)
	}
	if !got["inside"] {
		t.Fatal("interior span missed")
	}
	if !got["point"] {
		t.Fatal("zero-length interior span missed")
	}
	if got["edge"] {
		t.Fatal("zero-length span at the boundary should not overlap")
	}

	// A zero-length query window intersects exactly the spans that
	// strictly contain the instant.
	if ov := r.Overlapping(5, 5); len(ov) != 1 || ov[0].Label != "left" {
		t.Fatalf("point query = %v, want just the covering span", ov)
	}
	if len(r.Overlapping(10, 10)) != 0 {
		t.Fatal("point query at a span edge should be empty")
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
