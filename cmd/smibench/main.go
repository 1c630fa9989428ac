// Command smibench regenerates the paper's tables and figures.
//
// Usage:
//
//	smibench -table 1          # Table 1 (BT, SMM 0/1/2)
//	smibench -table 4          # Table 4 (HTT × EP)
//	smibench -figure 1         # Figure 1 (Convolve)
//	smibench -figure 2         # Figure 2 (UnixBench)
//	smibench -all              # everything
//	smibench -all -quick       # reduced grids, 1 run per cell
//	smibench -all -parallel 0  # fan sweep cells over every CPU
//	smibench -figure 1 -csv    # raw points as CSV
//	smibench -benchjson results/BENCH_sweeps.json  # perf baseline
//	smibench -table 1 -trace t.json -metrics m.json -manifest man.json
//	smibench -all -store results/store -resume     # durable, resumable
//
// Every run is deterministic for a given -seed; -runs overrides the
// paper's per-cell averaging (6 for MPI tables, 3 for figures).
// -parallel runs independent sweep cells concurrently (1 = sequential,
// 0 = all CPUs) without changing any output byte: every cell owns its
// own simulation engine, and results are assembled in sweep order.
//
// -benchjson runs the sweep suite at quick scale sequentially and at
// the -parallel worker count, recording wall time and allocations per
// sweep plus the sim engine's per-event cost, and writes the report as
// JSON to the given file.
//
// -store checkpoints every finished sweep cell in a content-addressed
// result store; with -resume a rerun replays the checkpointed cells
// byte-identically and only simulates what is missing, so a killed
// regeneration picks up where it stopped. -cell-timeout and -retries
// bound and retry individual cells. SIGINT cancels the sweep cleanly:
// sinks are flushed and the exit code is 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"

	"smistudy"
	"smistudy/internal/durable"
	"smistudy/internal/experiments"
	"smistudy/internal/obs"
	"smistudy/internal/parsweep"
	"smistudy/internal/runner"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(benchMain(ctx))
}

// exitCode is the sentinel benchMain panics with to unwind through the
// deferred sink flushes before exiting; run() raises it on any error.
type exitCode int

func benchMain(ctx context.Context) (code int) {
	table := flag.Int("table", 0, "regenerate paper table 1-5")
	figure := flag.Int("figure", 0, "regenerate paper figure 1-2")
	ext := flag.String("ext", "", "extension experiment: rim, energy, drift, profiler, nasx, amplify, model or all")
	all := flag.Bool("all", false, "regenerate every table and figure")
	quick := flag.Bool("quick", false, "reduced grids (smoke-test scale)")
	runs := flag.Int("runs", 0, "runs per cell (0 = paper defaults)")
	seed := flag.Int64("seed", 1, "base random seed")
	csv := flag.Bool("csv", false, "emit raw CSV instead of rendered output (figures)")
	jsonOut := flag.Bool("json", false, "emit JSON instead of rendered output")
	compare := flag.Int("compare", 0, "regenerate table 1-3 and diff against the paper's published values")
	parallel := flag.Int("parallel", 1, "sweep cells run concurrently (1 = sequential, 0 = all CPUs)")
	benchJSON := flag.String("benchjson", "", "write the sweep perf baseline (quick scale) as JSON to this file")
	traceOut := flag.String("trace", "", "stream a Chrome trace-event timeline of every sweep cell to this file")
	metricsOut := flag.String("metrics", "", "write the aggregated metrics snapshot as JSON to this file")
	manifestOut := flag.String("manifest", "", "write a reproducibility manifest (flags + versions) as JSON to this file")
	storeDir := flag.String("store", "", "checkpoint every finished sweep cell in this content-addressed result store directory")
	resume := flag.Bool("resume", false, "replay cells the -store already holds instead of re-running them")
	cellTimeout := flag.Duration("cell-timeout", 0, "wall-clock deadline per sweep cell (0 = none); timed-out cells fail, they are not retried")
	retries := flag.Int("retries", 0, "re-run transiently-failed cells up to this many times with exponential backoff")
	flag.Parse()

	// The recover must be registered before the sink-flush defers below
	// so that flushes run first while an exitCode panic unwinds.
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(exitCode)
			if !ok {
				panic(r)
			}
			code = int(c)
		}
	}()
	run := func(err error) {
		if err == nil {
			return
		}
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "smibench: interrupted")
			panic(exitCode(130))
		}
		fmt.Fprintln(os.Stderr, "smibench:", err)
		panic(exitCode(1))
	}

	if *resume && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "smibench: -resume requires -store")
		return 2
	}
	workers := *parallel
	if workers < 1 {
		workers = parsweep.Workers(0)
	}
	cfg := experiments.Config{
		Quick: *quick, Runs: *runs, Seed: *seed, Workers: workers,
		Ctx: ctx, Resume: *resume, CellTimeout: *cellTimeout, Retries: *retries,
		Stats: &runner.ExecStats{},
	}
	if *storeDir != "" {
		s, err := durable.Open(*storeDir)
		run(err)
		defer s.Close()
		cfg.Store = s
	}

	if *manifestOut != "" {
		m := obs.Capture("smibench", flag.CommandLine, "trace", "metrics", "manifest", "store", "resume")
		data, err := m.JSON()
		run(err)
		run(os.WriteFile(*manifestOut, data, 0o644))
	}
	// One bus spans every sweep requested on this invocation; per-run
	// stamping keeps parallel cells separable in the timeline.
	var sink *obs.ChromeSink
	var traceFile *os.File
	if *traceOut != "" || *metricsOut != "" {
		bus := obs.NewBus()
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			run(err)
			traceFile = f
			sink = obs.NewChromeSink(f)
			bus.Attach(sink)
		}
		cfg.Tracer = bus
		defer func() {
			if sink != nil {
				run(sink.Close())
				run(traceFile.Close())
			}
			if *metricsOut != "" {
				data, err := bus.MetricsSnapshot().JSON()
				run(err)
				run(os.WriteFile(*metricsOut, data, 0o644))
			}
		}()
	}

	if !*all && *table == 0 && *figure == 0 && *ext == "" && *compare == 0 && *benchJSON == "" {
		flag.Usage()
		return 2
	}

	if *benchJSON != "" {
		sets := []int{1}
		if workers > 1 {
			sets = append(sets, workers)
		} else if n := parsweep.Workers(0); n > 1 {
			sets = append(sets, n)
		}
		rep, err := experiments.BenchSweeps(cfg, sets)
		run(err)
		out, err := rep.ToJSON()
		run(err)
		run(os.MkdirAll(filepath.Dir(*benchJSON), 0o755))
		run(os.WriteFile(*benchJSON, []byte(out), 0o644))
		fmt.Printf("wrote %s (%d sweep timings, engine event %.1f ns / %.2f allocs)\n",
			*benchJSON, len(rep.Sweeps), rep.EngineEventNS, rep.EngineEventAllocs)
		if *table == 0 && *figure == 0 && *ext == "" && *compare == 0 && !*all {
			return
		}
	}
	emit := func(v interface{ Render() string }) {
		if *jsonOut {
			out, err := experiments.ToJSON(v)
			run(err)
			fmt.Println(out)
			return
		}
		fmt.Println(v.Render())
	}

	tables := map[int]bool{}
	figures := map[int]bool{}
	if *all {
		for i := 1; i <= 5; i++ {
			tables[i] = true
		}
		figures[1] = true
		figures[2] = true
	}
	if *table != 0 {
		tables[*table] = true
	}
	if *figure != 0 {
		figures[*figure] = true
	}

	for i := 1; i <= 5; i++ {
		if !tables[i] {
			continue
		}
		switch i {
		case 1:
			t, err := experiments.Table1(cfg)
			run(err)
			emit(t)
		case 2:
			t, err := experiments.Table2(cfg)
			run(err)
			emit(t)
		case 3:
			t, err := experiments.Table3(cfg)
			run(err)
			emit(t)
		case 4:
			t, err := experiments.Table4(cfg)
			run(err)
			emit(t)
		case 5:
			t, err := experiments.Table5(cfg)
			run(err)
			emit(t)
		default:
			run(fmt.Errorf("no table %d in the paper", i))
		}
	}
	if tables[0] || *table > 5 || *table < 0 {
		run(fmt.Errorf("no table %d in the paper", *table))
	}

	if figures[1] {
		f, err := experiments.Figure1Convolve(cfg)
		run(err)
		if *jsonOut {
			out, err := experiments.ToJSON(f)
			run(err)
			fmt.Println(out)
		} else if *csv {
			fmt.Print(f.CSV())
		} else {
			fmt.Println(f.Left(smistudy.CacheUnfriendly))
			fmt.Println(f.Right(smistudy.CacheUnfriendly))
			fmt.Println(f.Left(smistudy.CacheFriendly))
			fmt.Println(f.Right(smistudy.CacheFriendly))
		}
	}
	if figures[2] {
		f, err := experiments.Figure2UnixBench(cfg)
		run(err)
		switch {
		case *jsonOut:
			out, err := experiments.ToJSON(f)
			run(err)
			fmt.Println(out)
		case *csv:
			fmt.Print(f.CSV())
		default:
			fmt.Println(f.Render())
		}
	}
	if *figure > 2 || *figure < 0 {
		run(fmt.Errorf("no figure %d in the paper", *figure))
	}

	if *compare != 0 {
		out, err := experiments.Compare(cfg, *compare)
		run(err)
		fmt.Println(out)
	}

	exts := map[string]func(experiments.Config) (string, error){
		"rim":      experiments.RIMTradeoff,
		"energy":   experiments.EnergyStudy,
		"drift":    experiments.DriftStudy,
		"profiler": experiments.ProfilerStudy,
		"nasx":     experiments.ExtendedNAS,
		"amplify":  experiments.AmplificationStudy,
		"model":    experiments.ModelStudy,
		"faults":   experiments.FaultStudy,
	}
	switch *ext {
	case "":
	case "all":
		for _, name := range []string{"rim", "energy", "drift", "profiler", "nasx", "amplify", "model", "faults"} {
			out, err := exts[name](cfg)
			run(err)
			fmt.Println(out)
		}
	default:
		fn, ok := exts[*ext]
		if !ok {
			run(fmt.Errorf("unknown extension %q (want rim, energy, drift, profiler, nasx, amplify, model, faults or all)", *ext))
		}
		out, err := fn(cfg)
		run(err)
		fmt.Println(out)
	}
	return 0
}
