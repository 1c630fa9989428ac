package runner

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"smistudy/internal/scenario"
	"smistudy/internal/sim"
)

// TestValidateRejections pins that bad specs come back wrapped in
// ErrInvalidSpec (so CLIs can map them to usage errors) without running
// anything.
func TestValidateRejections(t *testing.T) {
	cases := map[string]scenario.Spec{
		"unknown workload": {Workload: "fortune"},
		"bad shape":        {Workload: "nas", Runs: -1},
		"unknown bench": {
			Workload: "nas",
			Params:   scenario.Params{Bench: "XX", Class: "A"},
		},
		"unknown class": {
			Workload: "nas",
			Params:   scenario.Params{Bench: "EP", Class: "Z"},
		},
		"nas rejects cpus": {
			Workload: "nas",
			Machine:  scenario.Machine{CPUs: 4},
			Params:   scenario.Params{Bench: "EP", Class: "A"},
		},
		"nas rejects odd interval": {
			Workload: "nas",
			SMM:      scenario.SMMPlan{IntervalMS: 250},
			Params:   scenario.Params{Bench: "EP", Class: "A"},
		},
		"convolve rejects nodes": {
			Workload: "convolve",
			Machine:  scenario.Machine{Nodes: 4},
		},
		"convolve rejects faults": {
			Workload: "convolve",
			Faults:   &scenario.FaultPlan{LossProb: 0.1},
		},
		"convolve rejects short": {
			Workload: "convolve",
			SMM:      scenario.SMMPlan{Level: "short", IntervalMS: 100},
		},
		"convolve rejects bad cache": {
			Workload: "convolve",
			Params:   scenario.Params{Cache: "hostile"},
		},
		"unixbench rejects runs": {Workload: "unixbench", Runs: 3},
		"rim rejects smm plan": {
			Workload: "rim",
			SMM:      scenario.SMMPlan{Level: "long", IntervalMS: 1000},
		},
		"profiler rejects bad mode": {
			Workload: "profiler",
			Params:   scenario.Params{Mode: "panic"},
		},
	}
	for name, sp := range cases {
		err := Validate(sp)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: error not wrapped in ErrInvalidSpec: %v", name, err)
		}
		// RunWith must agree with Validate without having run anything.
		if _, rerr := RunWith(sp, Exec{}); rerr == nil || !errors.Is(rerr, ErrInvalidSpec) {
			t.Errorf("%s: RunWith disagreed with Validate: %v", name, rerr)
		}
	}
}

// TestRunStampsMeasurement pins that Run labels the measurement with the
// spec's name and workload and populates exactly that workload section.
func TestRunStampsMeasurement(t *testing.T) {
	sp := scenario.Spec{
		Name:     "ep-smoke",
		Workload: "nas",
		Machine:  scenario.Machine{Nodes: 2},
		Params:   scenario.Params{Bench: "EP", Class: "S"},
	}
	m, err := Run(sp)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Name != "ep-smoke" || m.Workload != "nas" {
		t.Fatalf("stamp = %q/%q", m.Name, m.Workload)
	}
	if m.NAS == nil || m.Convolve != nil || m.UnixBench != nil {
		t.Fatalf("wrong sections populated: %+v", m)
	}
	if !m.NAS.Verified || m.NAS.MeanTime <= 0 {
		t.Fatalf("implausible result: %+v", m.NAS)
	}
}

// TestRunDeterministic pins the determinism contract: the same spec
// yields byte-identical measurement JSON on repeated execution, for any
// worker count.
func TestRunDeterministic(t *testing.T) {
	sp := scenario.Spec{
		Workload: "nas",
		Machine:  scenario.Machine{Nodes: 2, RanksPerNode: 2},
		SMM:      scenario.SMMPlan{Level: "long"},
		Runs:     3,
		Params:   scenario.Params{Bench: "EP", Class: "S"},
	}
	var docs []string
	for _, workers := range []int{1, 1, 4} {
		m, err := RunWith(sp, Exec{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// The legacy result struct echoes its options — including the
		// exec-only Workers knob — so compare the measured values only.
		m.NAS.Options = NASOptions{}
		doc, err := m.JSON()
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(doc))
	}
	if docs[0] != docs[1] {
		t.Fatal("same spec, different bytes across repeats")
	}
	if docs[0] != docs[2] {
		t.Fatal("worker count changed the measurement")
	}
}

// TestScenarioDispatchEquivalence: every example scenario serializes
// byte-identically whether its repetitions run sequentially or are
// dispatched over four workers. Scenarios whose runs fail (the faulted
// example) must fail identically both ways.
func TestScenarioDispatchEquivalence(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			sp, err := scenario.Load(file)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			run := func(workers int) ([]byte, string) {
				m, err := RunWith(sp, Exec{Workers: workers})
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
			want, wantErr := run(1)
			got, gotErr := run(4)
			if gotErr != wantErr {
				t.Errorf("workers=4: error %q, want %q", gotErr, wantErr)
			}
			if !bytes.Equal(got, want) {
				t.Error("workers=4: measurement differs from the sequential run")
			}
		})
	}
}

// TestLowerFaults pins the scenario→runner fault lowering: inactive
// plans vanish, active plans convert every timestamp exactly once.
func TestLowerFaults(t *testing.T) {
	if LowerFaults(nil) != nil {
		t.Fatal("nil plan lowered to non-nil")
	}
	if LowerFaults(&scenario.FaultPlan{CrashNode: 2}) != nil {
		t.Fatal("inactive plan lowered to non-nil")
	}
	got := LowerFaults(&scenario.FaultPlan{
		LossProb:  0.05,
		CrashNode: 1, CrashAtS: 2.5,
		StormNode: 3, StormAtS: 1, StormForS: 4, StormPeriodJiffies: 7,
	})
	want := &FaultPlan{
		LossProb:  0.05,
		CrashNode: 1, CrashAt: sim.FromSeconds(2.5),
		StormNode: 3, StormAt: sim.FromSeconds(1), StormFor: sim.FromSeconds(4),
		StormPeriodJiffies: 7,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lowered plan = %+v, want %+v", got, want)
	}
	if !got.Active() || got.Schedule().Empty() {
		t.Fatal("lowered plan should be active with a non-empty schedule")
	}
}

// TestFaultPlanActiveMatchesSchedule pins satellite invariant: Active()
// answers exactly "would Schedule() be non-empty", without building one.
func TestFaultPlanActiveMatchesSchedule(t *testing.T) {
	plans := []FaultPlan{
		{},
		{CrashNode: 3}, // selector without arming time
		{LossProb: 0.1},
		{CrashAt: sim.Second},
		{HangAt: sim.Second, HangFor: sim.Second},
		{StormAt: sim.Second},
		{DegradeAt: sim.Second, DegradeSlow: 4},
	}
	for i, p := range plans {
		if got, want := p.Active(), !p.Schedule().Empty(); got != want {
			t.Errorf("plan %d: Active() = %v, Schedule().Empty() = %v", i, got, !want)
		}
	}
}

// TestRegistry pins the registry surface: every built-in workload is
// listed, lookups agree, and concurrent readers race cleanly.
func TestRegistry(t *testing.T) {
	names := Names()
	for _, want := range []string{"nas", "convolve", "unixbench", "rim", "energy", "drift", "profiler"} {
		w, ok := Lookup(want)
		if !ok || w.Name != want || w.Run == nil || w.Summary == "" {
			t.Errorf("workload %q not fully registered", want)
		}
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("workload %q missing from Names()", want)
		}
	}
	if !sortedStrings(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				Names()
				Lookup("nas")
			}
		}()
	}
	wg.Wait()
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}
