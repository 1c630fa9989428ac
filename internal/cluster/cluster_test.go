package cluster

import (
	"testing"

	"smistudy/internal/netsim"
	"smistudy/internal/sim"
	"smistudy/internal/smm"
)

func TestWyeastAssembly(t *testing.T) {
	e := sim.New(1)
	c, err := New(e, Wyeast(4, false, smm.SMMLong))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 4 {
		t.Fatalf("nodes = %d, want 4", len(c.Nodes))
	}
	for i, n := range c.Nodes {
		if n.Index != i {
			t.Errorf("node %d has index %d", i, n.Index)
		}
		if n.CPU.NumLogical() != 4 {
			t.Errorf("HTT off should expose 4 logical CPUs, got %d", n.CPU.NumLogical())
		}
		if n.Kernel.CPU() != n.CPU {
			t.Error("kernel not bound to node CPU")
		}
	}
	if c.Fabric.Nodes() != 4 {
		t.Errorf("fabric nodes = %d", c.Fabric.Nodes())
	}
}

func TestWyeastHTT(t *testing.T) {
	e := sim.New(1)
	c := MustNew(e, Wyeast(1, true, smm.SMMNone))
	if c.Nodes[0].CPU.NumLogical() != 8 {
		t.Fatalf("HTT on should expose 8 logical CPUs, got %d", c.Nodes[0].CPU.NumLogical())
	}
}

func TestStartStopSMI(t *testing.T) {
	e := sim.New(1)
	c := MustNew(e, Wyeast(2, false, smm.SMMLong))
	c.StartSMI()
	e.RunUntil(5 * sim.Second)
	c.StopNoise()
	if c.TotalSMMResidency() == 0 {
		t.Fatal("no SMM residency accumulated with long SMIs armed")
	}
	for _, n := range c.Nodes {
		st := n.SMM.Stats()
		if st.Count < 3 {
			t.Errorf("node %d fired %d SMIs over 5s, want ≥3", n.Index, st.Count)
		}
	}
	// Phase jitter: the two nodes must not fire in lockstep.
	a := c.Nodes[0].SMM.Episodes()
	b := c.Nodes[1].SMM.Episodes()
	if a[0].Start == b[0].Start {
		t.Error("SMI phases identical across nodes despite jitter")
	}
}

func TestSMMNoneClusterQuiet(t *testing.T) {
	e := sim.New(1)
	c := MustNew(e, Wyeast(2, false, smm.SMMNone))
	c.StartSMI()
	e.RunUntil(3 * sim.Second)
	if c.TotalSMMResidency() != 0 {
		t.Fatal("SMM residency with level SMM0")
	}
}

func TestR410Preset(t *testing.T) {
	e := sim.New(1)
	cfg := R410(smm.DriverConfig{Level: smm.SMMLong, PeriodJiffies: 100})
	c := MustNew(e, cfg)
	if len(c.Nodes) != 1 {
		t.Fatalf("R410 is a single machine, got %d nodes", len(c.Nodes))
	}
	if c.Nodes[0].CPU.NumLogical() != 8 {
		t.Fatal("R410 should expose 8 logical CPUs")
	}
	c.StartSMI()
	e.RunUntil(1 * sim.Second)
	if c.Nodes[0].SMM.Stats().Count < 4 {
		t.Fatalf("expected ≥4 SMIs at 100ms period over 1s (cycle ≈ duration+period), got %d", c.Nodes[0].SMM.Stats().Count)
	}
}

func TestInvalidParams(t *testing.T) {
	e := sim.New(1)
	if _, err := New(e, Params{Nodes: 0}); err == nil {
		t.Error("0 nodes accepted")
	}
	bad := Wyeast(2, false, smm.SMMNone)
	bad.Node.CPU.PhysCores = 0
	if _, err := New(e, bad); err == nil {
		t.Error("invalid CPU params accepted")
	}
	bad2 := Wyeast(2, false, smm.SMMNone)
	bad2.Fabric = netsim.Params{}
	if _, err := New(e, bad2); err == nil {
		t.Error("invalid fabric params accepted")
	}
}

func TestPerCPURendezvousGrowsResidencyWithHTT(t *testing.T) {
	residency := func(htt bool) sim.Time {
		e := sim.New(9)
		c := MustNew(e, Wyeast(1, htt, smm.SMMLong))
		c.StartSMI()
		e.RunUntil(10 * sim.Second)
		return c.Nodes[0].SMM.Stats().TotalResidency
	}
	off := residency(false)
	on := residency(true)
	if on <= off {
		t.Fatalf("HTT-on residency %v not greater than HTT-off %v (per-CPU rendezvous)", on, off)
	}
}
