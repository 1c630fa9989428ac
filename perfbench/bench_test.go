package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"smistudy/internal/scenario"
)

// TestMain lets the test binary stand in for the command when the
// end-to-end runs of TestTinyRunEmitsEveryMetric start their --rss-pass
// children.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--rss-pass" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the subset of BENCHMARK.json the self-tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runTiny runs the command in-process with a short window and returns
// its parsed last line.
func runTiny(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--root", "..", "--spans", filepath.Join(t.TempDir(), "spans.jsonl"))
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
	}
	return res
}

func TestTinyRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, mode := range []struct {
			trace string
			seed  string
			want  map[string]string
		}{
			{"0", "1", map[string]string{}},
			{"1", "5", map[string]string{}},
		} {
			list := bf.EndToEnd
			if mode.trace == "1" {
				list = bf.PerLayer
			}
			for _, m := range list {
				mode.want[m.Name] = m.Unit
			}
			res := runTiny(t, "--workload", w.Name, "--seed", mode.seed, "--seconds", "0.3", "--trace", mode.trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, mode.trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json lists %d", w.Name, mode.trace, len(res.Metrics), len(mode.want))
			}
			for name, unit := range mode.want {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.Name, mode.trace, name, got, unit)
				}
			}
		}
	}
}

func TestCorruptedDigestCountsAsFailure(t *testing.T) {
	d, err := loadDigests("digests.json")
	if err != nil {
		t.Fatal(err)
	}
	cells := mpiNoiseCells(defaultSeed)[:4]
	expected := map[string]string{}
	for k, v := range d["mpi-noise"] {
		expected[k] = v
	}
	expected[cells[2].name] = "0000000000000000"
	var log bytes.Buffer
	b := &simBench{
		c:     config{root: "..", seed: defaultSeed, expected: expected, log: &log},
		cells: cells,
	}
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	o := b.phase(1, 0, true)
	if o.attempted != 4 || o.failed != 1 || o.wrong != 1 {
		t.Fatalf("attempted=%d failed=%d wrong=%d, want 4/1/1\n%s", o.attempted, o.failed, o.wrong, log.String())
	}
	if ff := failFrac(o); ff.Value != 0.25 {
		t.Fatalf("fail_frac = %v, want 0.25", ff.Value)
	}
	if !strings.Contains(log.String(), cells[2].name) {
		t.Fatalf("log does not name the corrupted cell:\n%s", log.String())
	}
}

func TestChargeStack(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "smistudy/internal/cpu.(*Model).assign", "smistudy/internal/sim.(*Engine).Run"}, "cpu"},
		{[]string{"smistudy/internal/sim.(*Engine).Run", "smistudy/internal/runner.RunWith"}, "sim"},
		{[]string{"encoding/json.(*decodeState).object", "smistudy/internal/scenario.Parse", "main.(*simBench).runCell"}, "scenario"},
		{[]string{"runtime.memmove", "smistudy/internal/nas.(*Rank).step"}, "other"},
		{[]string{"encoding/json.Marshal", "main.(*simBench).check"}, "bench"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{nil, "runtime"},
	} {
		if got := chargeStack(tc.frames); got != tc.want {
			t.Errorf("chargeStack(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

func TestCPUSharesDecodesARealProfile(t *testing.T) {
	doc := mpiNoiseCells(defaultSeed)[0].doc
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for t0 := time.Now(); time.Since(t0) < 500*time.Millisecond; {
		if _, err := scenario.Parse(doc); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range shares {
		total += v
	}
	// Under the race detector much of the time lands in its runtime, so
	// only require scenario to lead every other charged package.
	if total < 0.999 || total > 1.001 || shares["scenario"] < 0.25 {
		t.Fatalf("shares %v: want a total of 1 with scenario.Parse holding a large part", shares)
	}
	for layer, v := range shares {
		if layer != "scenario" && layer != "runtime" && v >= shares["scenario"] {
			t.Fatalf("shares %v: %s outweighs scenario", shares, layer)
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if p, v := tail(xs); p != 90 || v != 90 {
		t.Fatalf("tail(1..100) = p%d %v, want p90 90", p, v)
	}
	if p, v := tail(xs[:15]); p != 50 || v != 8 {
		t.Fatalf("tail(1..15) = p%d %v, want the median", p, v)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Op: 1, Name: "cell", Parent: -1, Start: 0, End: 10},
		{Op: 1, Name: "runner.run", Parent: 0, Start: 2, End: 5},
		{Op: 1, Name: "report.build", Parent: 0, Start: 4, End: 8},
	}
	for _, st := range selfTimes(spans) {
		if st.Name == "cell" && st.SelfMS != 4e-6 {
			t.Fatalf("cell self time = %v ms, want 4 ns", st.SelfMS)
		}
	}
}

func TestInputsDependOnlyOnTheSeed(t *testing.T) {
	digestOf := func(seed int64) string {
		var docs [][]byte
		for _, gen := range []func(int64) []cell{mpiNoiseCells, threadedOSCells, traceReportCells} {
			for _, c := range gen(seed) {
				docs = append(docs, c.doc)
			}
		}
		docs = append(docs, preseedSpecs(seed)...)
		for k := 0; k < 50; k++ {
			docs = append(docs, submissionAt(seed, preseedSpecs(seed), 1, k).body)
		}
		return inputDigest(docs)
	}
	if digestOf(3) != digestOf(3) {
		t.Fatal("same seed, different inputs")
	}
	if digestOf(3) == digestOf(4) {
		t.Fatal("different seeds, same inputs")
	}
}
