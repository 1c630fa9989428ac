package report

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smistudy/internal/durable"
	"smistudy/internal/obs"
	"smistudy/internal/scenario"
)

// runTracedCell executes a small traced BT cell — the paper's Table 1
// MPI configuration at class S — writing every artifact smireport
// consumes: trace, metrics, manifest and durable store.
func runTracedCell(t *testing.T, dir string) (spec scenario.Spec, residency float64, in Inputs) {
	t.Helper()
	spec = scenario.Spec{
		Workload: "nas",
		Machine:  scenario.Machine{Nodes: 4, RanksPerNode: 1},
		SMM:      scenario.SMMPlan{Level: "long"},
		Runs:     2, Seed: 11,
		Params: scenario.Params{Bench: "BT", Class: "S"},
	}
	in = Inputs{
		TracePath:    filepath.Join(dir, "trace.json"),
		MetricsPath:  filepath.Join(dir, "metrics.json"),
		ManifestPath: filepath.Join(dir, "manifest.json"),
		StoreDir:     filepath.Join(dir, "store"),
	}

	bus := obs.NewBus()
	f, err := os.Create(in.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewChromeSink(f)
	bus.Attach(sink)
	st, err := durable.Open(in.StoreDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	m, _, err := durable.RunSpec(context.Background(), spec,
		durable.Options{Workers: 1, Tracer: bus, Store: st})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if m.NAS == nil || !m.NAS.Verified {
		t.Fatalf("measurement = %+v, want verified NAS result", m)
	}
	residency = m.NAS.Residency.Seconds()
	if residency <= 0 {
		t.Fatal("no SMM residency recorded: the acceptance comparison would be vacuous")
	}

	snap, err := bus.MetricsSnapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in.MetricsPath, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	man := obs.Manifest{
		Schema: obs.ManifestSchema, Command: "report_test", Version: obs.Version,
		Flags: map[string]string{},
		Obs:   &obs.SinkStats{TraceEvents: sink.Events()},
	}
	if data, err := spec.JSON(); err == nil {
		man.Scenario = data
	}
	data, err := man.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in.ManifestPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return spec, residency, in
}

// TestReportEndToEnd is the tentpole acceptance test: a traced BT run's
// report must hold its attribution invariants, reproduce the runner's
// SMM overhead from the trace alone, and carry every section.
func TestReportEndToEnd(t *testing.T) {
	dir := t.TempDir()
	spec, residency, in := runTracedCell(t, dir)

	r, err := Build(in)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(r.Warnings) != 0 {
		t.Errorf("clean run produced warnings: %v", r.Warnings)
	}
	if len(r.Violations) != 0 {
		t.Fatalf("attribution invariants violated: %+v", r.Violations)
	}
	if r.Trace == nil || r.Trace.Runs != spec.Runs {
		t.Fatalf("trace summary = %+v, want %d runs", r.Trace, spec.Runs)
	}

	// Acceptance: every CPU's categories sum to its run's wall time
	// within 1% (Check enforces this too; assert it directly).
	for _, ra := range r.Runs {
		var walk func(n *Node)
		walk = func(n *Node) {
			if n.Kind == "cpu" {
				var sum float64
				for _, c := range n.Children {
					sum += c.Seconds
				}
				if math.Abs(sum-ra.WallSeconds) > 0.01*ra.WallSeconds {
					t.Errorf("run %d %s: categories sum to %.6f s, wall is %.6f s",
						ra.Run, n.Label, sum, ra.WallSeconds)
				}
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(ra.Tree)
	}

	// Acceptance: the SMM time the attribution recovers from the trace
	// matches the runner's reported mean per-node residency.
	smmSec, _ := r.Aggregate.CategoryTotal(CatSMMStolen)
	perNode := smmSec / float64(spec.Machine.Nodes)
	if math.Abs(perNode-residency) > 0.02*residency {
		t.Errorf("attributed SMM %.6f s/node vs runner residency %.6f s/node (>2%% apart)",
			perNode, residency)
	}

	// The metrics snapshot carries the log2 per-SMI residency histogram.
	var found bool
	for _, h := range r.Metrics.Histograms {
		if h.Name == "smm_residency_us" && h.N > 0 {
			found = true
			for i := 1; i < len(h.Bounds); i++ {
				if h.Bounds[i] != 2*h.Bounds[i-1] {
					t.Fatalf("smm_residency_us bounds not log2: %v", h.Bounds)
				}
			}
		}
	}
	if !found {
		t.Error("smm_residency_us histogram missing or empty")
	}

	// The store section analyzed both repetition cells.
	if r.Similarity == nil || len(r.Similarity.Cells) != 2 {
		t.Fatalf("similarity = %+v, want 2 cells", r.Similarity)
	}

	// The journal → report linkage: every journaled cell must carry the
	// spec dimensions PutSpec recorded at planning time (a silent spec
	// write failure degrades the whole dimension-relevance analysis).
	st, err := durable.Open(in.StoreDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cells, err := LoadCells(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Dims["machine.nodes"] != "4" || c.Dims["smm.level"] != "long" {
			t.Errorf("cell %s/r%d lost its spec dimensions: %v", c.Key, c.Run, c.Dims)
		}
	}

	// Both output surfaces render and carry every section.
	html := string(r.HTML())
	for _, want := range []string{"smm-stolen", "<svg", "Cross-run similarity",
		"Distributions", "all attribution invariants hold"} {
		if !strings.Contains(html, want) {
			t.Errorf("HTML lacks %q", want)
		}
	}
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]interface{}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if _, ok := back["violations"]; !ok {
		t.Error("JSON lacks the violations field CI asserts on")
	}
}

func TestReportWarnsOnLossyArtifacts(t *testing.T) {
	dir := t.TempDir()

	// A manifest recording ring drops and a trace write error.
	man := obs.Manifest{
		Schema: obs.ManifestSchema, Command: "x", Flags: map[string]string{},
		Obs: &obs.SinkStats{TraceEvents: 10, TraceError: "disk full",
			RingTotal: 100, RingDropped: 25},
	}
	data, err := man.JSON()
	if err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(manPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Build(Inputs{ManifestPath: manPath})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Warnings, "\n")
	if !strings.Contains(joined, "disk full") || !strings.Contains(joined, "ring sink dropped 25") {
		t.Fatalf("lossy manifest warnings = %v", r.Warnings)
	}

	// A torn trace: a stream cut mid-record.
	tracePath := filepath.Join(dir, "trace.json")
	if err := os.WriteFile(tracePath,
		[]byte(`{"traceEvents":[`+"\n"+`{"name":"cell","cat":"sweep","ph":"i","ts":0,"pid":0,"tid":1},`+"\n"+`{"name":"cel`), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err = Build(Inputs{TracePath: tracePath})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(r.Warnings, "\n"), "truncated") {
		t.Fatalf("torn trace warnings = %v", r.Warnings)
	}

	// Manifest/trace record-count mismatch.
	if err := os.WriteFile(tracePath,
		[]byte(`{"traceEvents":[`+"\n"+`{"name":"cell","cat":"sweep","ph":"i","ts":0,"pid":0,"tid":1}`+"\n"+`]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err = Build(Inputs{TracePath: tracePath, ManifestPath: manPath})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(r.Warnings, "\n"), "different runs") {
		t.Fatalf("mismatch warnings = %v", r.Warnings)
	}
}

func TestBuildRejectsEmptyInputs(t *testing.T) {
	if _, err := Build(Inputs{}); err == nil {
		t.Fatal("no inputs accepted")
	}
}

// TestCheckHoldsWhenThreadsShareCPUs pins the trace reader's order on
// shapes that put several threads on one node's CPUs: NAS with four
// ranks per node and a multithreaded Convolve run. Their scheduler
// emits zero-length runs (run then preempt at one instant); read back
// out of emission order, such a pair looks like a preempt on an idle
// CPU and Check reports unmatched preempt edges.
func TestCheckHoldsWhenThreadsShareCPUs(t *testing.T) {
	for _, spec := range []scenario.Spec{
		{
			Workload: "nas",
			Machine:  scenario.Machine{Nodes: 2, RanksPerNode: 4},
			SMM:      scenario.SMMPlan{Level: "long"},
			Runs:     1, Seed: 3,
			Params: scenario.Params{Bench: "EP", Class: "S"},
		},
		{
			Workload: "convolve",
			Machine:  scenario.Machine{CPUs: 6},
			SMM:      scenario.SMMPlan{IntervalMS: 150},
			Runs:     1, Seed: 1,
			Params: scenario.Params{Cache: "unfriendly"},
		},
	} {
		t.Run(spec.Workload, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.json")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			bus := obs.NewBus()
			sink := obs.NewChromeSink(f)
			bus.Attach(sink)
			if _, _, err := durable.RunSpec(context.Background(), spec,
				durable.Options{Workers: 1, Tracer: bus}); err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Build(Inputs{TracePath: path})
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if len(r.Runs) == 0 {
				t.Fatal("no attributed runs")
			}
			if len(r.Violations) != 0 {
				t.Fatalf("attribution invariants violated: %+v", r.Violations)
			}
		})
	}
}
