// Command perfbench is the repository benchmark. One invocation runs one
// seeded workload through the program's public entry points for a fixed
// time, checks every output, and prints its metrics as the last line of
// standard output:
//
//	perfbench --workload mpi-noise --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it repeats the same inputs untraced and then traced
// and reports the per-layer metrics: span timings taken around each
// layer call, obs.Bus and server counters, and a CPU-profile
// attribution by package. It must run from the root of a repository
// checkout (it reads results/golden and perfbench/digests.json there).
// See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeed is the seed whose per-cell output digests are committed in
// perfbench/digests.json.
const defaultSeed = 1

// setupRepeats is how many times each run sets its workload up; setup_s
// reports the median.
const setupRepeats = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings, shared by every workload.
type config struct {
	root     string            // checkout root
	workload string            // workload name, passed on to --rss-pass children
	work     string            // scratch directory for stores and trace files
	seed     int64             // input generator seed
	window   time.Duration     // measured time
	expected map[string]string // committed output digests by cell name (default seed only)
	log      io.Writer         // progress and diagnostic lines
	spans    *tracer           // traced run's spans; nil for the end-to-end run
	rssPass  bool              // run as an --rss-pass child
}

func (c config) goldenDir() string { return filepath.Join(c.root, "results", "golden") }

// outcome accumulates one measured phase.
type outcome struct {
	attempted int64
	failed    int64 // errored, rejected or wrong-output operations
	wrong     int64 // operations whose output failed a check
	latMS     []float64
	wall      time.Duration
	// rates are throughput samples over equal slices of work (whole
	// passes, or runs of consecutive completions); ops_per_s is their
	// median, which a brief stall of the host moves less than the
	// window mean.
	rates []float64
	// rssMiB, when set, is the peak RSS read after a fixed amount of
	// work; otherwise peak_rss_mb is read at the end of the run.
	rssMiB float64
}

// record adds one operation; a failed operation's latency is +Inf, so it
// misses every latency limit.
func (o *outcome) record(lat time.Duration, failed bool) {
	o.attempted++
	if failed {
		o.failed++
		o.latMS = append(o.latMS, math.Inf(1))
		return
	}
	o.latMS = append(o.latMS, float64(lat)/float64(time.Millisecond))
}

// markWrong turns an operation already recorded as successful into a
// failure after a check outside the timed region found its output wrong.
func (o *outcome) markWrong() {
	o.wrong++
	o.failed++
}

// workload is one named benchmark workload.
type workload struct {
	name string
	why  string
	// run measures the workload, untraced for the end-to-end metrics or,
	// when c.spans is set, traced for the per-layer metrics, and reports
	// the operations it attempted.
	run func(c config) (outcome, map[string]metric, error)
}

var workloads = []workload{
	{"mpi-noise", "NAS BT/FT on 4 nodes under every noise family: the Tables 1-5 path through mpi, netsim and stall-all SMM", simRunner(mpiNoiseCells, false)},
	{"threaded-os", "Convolve and UnixBench on 1-8 logical CPUs under SMIs and jitter: the Figures 1-2 path through cpu and kernel", simRunner(threadedOSCells, false)},
	{"sweep-service", "in-process smiserve with a pre-seeded store and two closed-loop clients, half repeats: serve, durable and scenario", runService},
	{"trace-report", "cells with a Chrome trace sink, then obs.ReadTrace and report.Build: the tracer and report pipeline", simRunner(traceReportCells, true)},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", defaultSeed, "input generator seed")
	seconds := fs.Float64("seconds", 12, "measured time in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	root := fs.String("root", ".", "repository checkout root")
	spansOut := fs.String("spans", "", "traced run: write spans here (default .bench_build/spans/<workload>-<seed>.jsonl under root)")
	writeDigests := fs.String("write-digests", "", "run one pass of every workload at the default seed and write the output digests to this file")
	rssPass := fs.Bool("rss-pass", false, "simulation workloads: set up once, run and check one pass of the cells, and report only this process's peak_rss_mb")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeDigests != "" {
		if err := recordDigests(*root, *writeDigests, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || (*rssPass && *trace != 0) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	// At most one thread of work per available CPU, and never more
	// than two: the benchmark's design assumes a two-CPU host.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	cfg := config{
		root:     *root,
		workload: w.name,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		log:      stdout,
		rssPass:  *rssPass,
	}
	if _, err := os.Stat(cfg.goldenDir()); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s is not a repository checkout: %v\n", *root, err)
		return 1
	}
	if *seed == defaultSeed {
		d, err := loadDigests(filepath.Join(*root, "perfbench", "digests.json"))
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		cfg.expected = d[w.name]
		if cfg.expected == nil {
			fmt.Fprintf(stderr, "perfbench: digests.json has no entry for %s\n", w.name)
			return 1
		}
	}
	scratch := filepath.Join(*root, ".bench_build")
	err := os.MkdirAll(scratch, 0o755)
	var work string
	if err == nil {
		work, err = os.MkdirTemp(scratch, "perfbench-")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg.work = work

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
		cfg.spans = tr
	}
	out, metrics, err := w.run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if tr != nil {
		path := *spansOut
		if path == "" {
			path = filepath.Join(*root, ".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", w.name, *seed))
		}
		if err := tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
		for _, st := range selfTimes(tr.spans) {
			fmt.Fprintf(stdout, "  self %-22s n=%-6d total=%10.1fms self=%10.1fms\n", st.Name, st.Count, st.TotalMS, st.SelfMS)
		}
	}
	if out.failed > 0 {
		fmt.Fprintf(stdout, "FAILED: %d of %d operations (%d wrong outputs)\n", out.failed, out.attempted, out.wrong)
	}
	res := result{
		Correct:   out.wrong == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// endToEnd builds the end-to-end metrics from a measured phase and the
// repeated setup times. op is "cell" or "submission", for the log line.
func endToEnd(c config, op string, o outcome, setups []time.Duration) map[string]metric {
	lat := append([]float64(nil), o.latMS...)
	windowMS := float64(o.wall) / float64(time.Millisecond)
	for i, v := range lat {
		if math.IsInf(v, 1) {
			lat[i] = windowMS // stands in for "missed every limit" in JSON
		}
	}
	p, tailMS := tail(lat)
	rate := float64(o.attempted-o.failed) / o.wall.Seconds()
	if len(o.rates) >= 3 {
		rate = median(o.rates)
	}
	rss := o.rssMiB
	if rss == 0 {
		rss = peakRSSMiB()
	}
	var setupS []float64
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	fmt.Fprintf(c.log, "%s latency: p50=%.3fms p%d=%.3fms over n=%d %ss (%d failed); setups=%v\n",
		op, median(lat), p, tailMS, len(lat), op, o.failed, setups)
	return map[string]metric{
		"ops_per_s":   {rate, "1/s"},
		"op_ms_p50":   {median(lat), "ms"},
		"op_ms_tail":  {tailMS, "ms"},
		"peak_rss_mb": {rss, "MiB"},
		"setup_s":     {median(setupS), "s"},
	}
}

// failFrac is failed operations over attempted ones.
func failFrac(o outcome) metric {
	if o.attempted == 0 {
		return metric{0, "ratio"}
	}
	return metric{float64(o.failed) / float64(o.attempted), "ratio"}
}
