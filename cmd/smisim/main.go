// Command smisim runs a single simulated experiment configuration — one
// cell of the study — and prints its result. It is the ad-hoc driver for
// exploring configurations the paper did not tabulate.
//
// Usage:
//
//	smisim -workload nas -bench FT -class B -nodes 8 -rpn 4 -smm 2 -htt
//	smisim -workload nas -bench EP -class A -nodes 4 -loss 0.01
//	smisim -workload nas -bench EP -class A -nodes 4 -crash-node 1 -crash-at 5
//	smisim -workload convolve -cache unfriendly -cpus 6 -interval 150
//	smisim -workload unixbench -cpus 8 -interval 600
//
// The -loss/-crash-*/-hang-*/-storm-* flags inject fabric and node
// faults into NAS runs; lossy scenarios automatically enable the MPI
// ack/retransmit transport.
//
// Scenario files:
//
//	smisim -scenario examples/scenarios/table1-bt-a.json
//	smisim -list-workloads
//
// A scenario file is the declarative twin of the flag surface
// (internal/scenario): the same cell, measured byte-for-byte
// identically, but serializable, diffable and reachable for every
// registered workload — including the ones the flag surface does not
// cover (rim, energy, drift, profiler). Flags that describe the cell
// cannot be combined with -scenario; execution flags (-parallel,
// -trace, -metrics, -manifest, -replay) still apply.
//
// Observability:
//
//	smisim ... -trace run.json          # Chrome/Perfetto timeline
//	smisim ... -metrics metrics.json    # counters and histograms
//	smisim ... -manifest manifest.json  # reproducibility manifest
//	smisim -replay manifest.json        # re-run exactly that cell
//
// Durability:
//
//	smisim -scenario cell.json -store results/store          # checkpoint cells
//	smisim -scenario cell.json -store results/store -resume  # replay + finish
//	smisim ... -cell-timeout 5m -retries 3                   # per-cell limits
//
// With -store every finished repetition is checkpointed in a
// content-addressed store keyed by the cell's canonical spec, so a run
// killed at any instant — Ctrl-C, OOM, kill -9 — resumes with -resume
// from exactly the repetitions it completed and reproduces the
// uninterrupted output byte-for-byte. SIGINT cancels cleanly: sinks
// are flushed, the manifest records how far the sweep got, and the
// exit code is 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"smistudy/internal/durable"
	"smistudy/internal/obs"
	"smistudy/internal/parsweep"
	"smistudy/internal/runner"
	"smistudy/internal/scenario"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// cellFlags are the flags that describe the measured cell itself; they
// are the legacy spelling of a scenario file, so combining them with
// -scenario would make the file an incomplete description of the run.
// Execution and output flags (parallel, trace, metrics, manifest,
// replay) stay valid either way.
var cellFlags = map[string]bool{
	"workload": true, "bench": true, "class": true, "nodes": true,
	"rpn": true, "htt": true, "smm": true, "cache": true, "cpus": true,
	"interval": true, "runs": true, "seed": true, "loss": true,
	"crash-node": true, "crash-at": true, "hang-node": true,
	"hang-at": true, "hang-for": true, "storm-node": true,
	"storm-at": true, "storm-for": true, "watchdog": true,
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smisim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "nas", "nas, convolve or unixbench")
	bench := fs.String("bench", "EP", "NAS benchmark: EP, BT, FT")
	class := fs.String("class", "A", "NAS class: S, A, B, C")
	nodes := fs.Int("nodes", 1, "cluster nodes")
	rpn := fs.Int("rpn", 1, "MPI ranks per node")
	htt := fs.Bool("htt", false, "enable hyper-threading")
	smmLevel := fs.Int("smm", 0, "SMM level: 0 none, 1 short, 2 long")
	cacheB := fs.String("cache", "friendly", "convolve cache behavior: friendly, unfriendly")
	cpus := fs.Int("cpus", 4, "online logical CPUs (convolve/unixbench)")
	interval := fs.Int("interval", 0, "SMI interval ms (convolve/unixbench; 0 = off)")
	runs := fs.Int("runs", 1, "runs to average")
	seed := fs.Int64("seed", 1, "random seed")
	loss := fs.Float64("loss", 0, "nas: uniform message-loss probability (0-1)")
	crashNode := fs.Int("crash-node", 0, "nas: node to crash when -crash-at > 0")
	crashAt := fs.Float64("crash-at", 0, "nas: crash time in seconds (0 = no crash)")
	hangNode := fs.Int("hang-node", 0, "nas: node to hang when -hang-at > 0")
	hangAt := fs.Float64("hang-at", 0, "nas: hang time in seconds (0 = no hang)")
	hangFor := fs.Float64("hang-for", 0, "nas: hang duration in seconds (0 = forever)")
	stormNode := fs.Int("storm-node", 0, "nas: node for an SMI storm when -storm-at > 0")
	stormAt := fs.Float64("storm-at", 0, "nas: SMI-storm start in seconds (0 = no storm)")
	stormFor := fs.Float64("storm-for", 0, "nas: SMI-storm duration in seconds (0 = to end of run)")
	watchdog := fs.Float64("watchdog", 0, "nas: progress-watchdog interval in seconds (0 = default, <0 = off)")
	parallel := fs.Int("parallel", 1, "repeat runs concurrently (1 = sequential, 0 = all CPUs); output is identical either way")
	traceOut := fs.String("trace", "", "stream a Chrome trace-event timeline (chrome://tracing, Perfetto) to this file")
	metricsOut := fs.String("metrics", "", "write the run's metrics snapshot as JSON to this file")
	manifestOut := fs.String("manifest", "", "write a reproducibility manifest (flags + versions) as JSON to this file")
	replay := fs.String("replay", "", "re-run from a manifest file; flags given on the command line still win")
	storeDir := fs.String("store", "", "checkpoint every finished repetition in this content-addressed result store directory")
	resume := fs.Bool("resume", false, "replay repetitions the -store already holds instead of re-running them")
	cellTimeout := fs.Duration("cell-timeout", 0, "wall-clock deadline per repetition cell (0 = none); timed-out cells fail, they are not retried")
	retries := fs.Int("retries", 0, "re-run transiently-failed cells up to this many times with exponential backoff")
	scenarioFile := fs.String("scenario", "", "run a declarative scenario file (JSON) instead of the cell flags")
	listWorkloads := fs.Bool("list-workloads", false, "list the registered workloads and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "smisim:", err)
		return 1
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "smisim:", err)
		return 2
	}

	if *listWorkloads {
		for _, name := range runner.Names() {
			w, _ := runner.Lookup(name)
			fmt.Fprintf(stdout, "%-10s %s\n", name, w.Summary)
		}
		return 0
	}

	// Record what the command line itself set before -replay rewrites the
	// flag set programmatically: the conflict check below and the replay
	// precedence rule ("explicit flags win") both need the original set.
	explicit := obs.ExplicitFlags(fs)
	if *scenarioFile != "" {
		for name := range explicit {
			if cellFlags[name] {
				return usage(fmt.Errorf("-%s cannot be combined with -scenario (the file is the complete cell description)", name))
			}
		}
	}

	if *replay != "" {
		m, err := obs.LoadManifestFile(*replay)
		if err != nil {
			return fail(err)
		}
		if err := m.Apply(fs, explicit); err != nil {
			return fail(err)
		}
	}

	// Build the cell spec — from the scenario file, or by lowering the
	// legacy flag surface onto the same declarative form — and validate
	// it up front, after -replay may have rewritten the flags and before
	// any output file is created, so operator typos exit 2 instead of
	// panicking or silently meaning a default.
	var spec scenario.Spec
	if *scenarioFile != "" {
		sp, err := scenario.Load(*scenarioFile)
		if err != nil {
			return usage(err)
		}
		spec = sp
	} else {
		switch *workload {
		case "nas":
			if _, err := parseBench(*bench); err != nil {
				return usage(err)
			}
			if _, err := parseClass(*class); err != nil {
				return usage(err)
			}
			if _, err := parseSMM(*smmLevel); err != nil {
				return usage(err)
			}
			spec = scenario.Spec{
				Workload: "nas",
				Machine:  scenario.Machine{Nodes: *nodes, RanksPerNode: *rpn, HTT: *htt},
				SMM:      scenario.SMMPlan{Level: []string{"none", "short", "long"}[*smmLevel]},
				Runs:     *runs, Seed: *seed, WatchdogS: *watchdog,
				Params: scenario.Params{Bench: *bench, Class: *class},
			}
			plan := scenario.FaultPlan{
				LossProb:  *loss,
				CrashNode: *crashNode, CrashAtS: *crashAt,
				HangNode: *hangNode, HangAtS: *hangAt, HangForS: *hangFor,
				StormNode: *stormNode, StormAtS: *stormAt, StormForS: *stormFor,
			}
			if plan.Active() {
				spec.Faults = &plan
			}
		case "convolve":
			if _, err := parseCache(*cacheB); err != nil {
				return usage(err)
			}
			spec = scenario.Spec{
				Workload: "convolve",
				Machine:  scenario.Machine{CPUs: *cpus},
				SMM:      scenario.SMMPlan{IntervalMS: *interval},
				Runs:     *runs, Seed: *seed,
				Params: scenario.Params{Cache: *cacheB},
			}
		case "unixbench":
			// An iteration is a single 2 s-per-test run at long SMIs, as
			// the legacy surface always ran it; -runs is not a knob here.
			spec = scenario.Spec{
				Workload: "unixbench",
				Machine:  scenario.Machine{CPUs: *cpus},
				SMM:      scenario.SMMPlan{Level: "long", IntervalMS: *interval},
				Seed:     *seed,
				Params:   scenario.Params{DurationS: 2},
			}
		default:
			return usage(fmt.Errorf("unknown -workload %q (want nas, convolve or unixbench; -scenario reaches every registered workload)", *workload))
		}
	}
	if err := runner.Validate(spec); err != nil {
		return usage(err)
	}
	// Reject malformed fault plans up front: a bad fault flag or field is
	// an operator error, not a fault-scenario outcome.
	if spec.Workload == "nas" {
		if plan := runner.LowerFaults(spec.Faults); plan != nil {
			if err := plan.Schedule().Validate(specNodes(spec)); err != nil {
				return fail(err)
			}
		}
	}

	// The manifest is written before the run (so a killed run still has
	// one) and rewritten afterwards with the durable sweep's accounting.
	// Store flags are excluded: the store is a local cache location, not
	// part of what the run measures.
	manifest := obs.Capture("smisim", fs, "trace", "metrics", "manifest", "replay", "store", "resume")
	// Echo the canonical spec: the manifest then carries the cell's
	// content-address identity, which is what smireport and the durable
	// store key on.
	if data, err := spec.JSON(); err == nil {
		manifest.Scenario = data
	}
	writeManifest := func() int {
		if *manifestOut == "" {
			return 0
		}
		data, err := manifest.JSON()
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*manifestOut, data, 0o644); err != nil {
			return fail(err)
		}
		return 0
	}
	if code := writeManifest(); code != 0 {
		return code
	}

	workers := *parallel
	if workers < 1 {
		workers = parsweep.Workers(0)
	}

	// Output destinations: explicit flags win, then the scenario file's
	// obs section, then none.
	traceDest := *traceOut
	if traceDest == "" {
		traceDest = spec.Obs.Trace
	}
	metricsDest := *metricsOut
	if metricsDest == "" {
		metricsDest = spec.Obs.Metrics
	}

	// The bus is shared by all runs of the cell; each run's events are
	// stamped with its run index, so -parallel does not scramble the
	// trace. Outputs are written when the measured workload returns —
	// including when a fault scenario kills the job, which is exactly
	// when a timeline is most useful.
	var bus *obs.Bus
	var sink *obs.ChromeSink
	var traceFile *os.File
	if traceDest != "" || metricsDest != "" {
		bus = obs.NewBus()
		if traceDest != "" {
			f, err := os.Create(traceDest)
			if err != nil {
				return fail(err)
			}
			traceFile = f
			sink = obs.NewChromeSink(f)
			bus.Attach(sink)
		}
	}
	finish := func() error {
		if sink != nil {
			cerr := sink.Close()
			// Sink accounting lands in the manifest even when the writer
			// errored — especially then: a lossy trace that looks complete
			// is the failure mode smireport's warnings exist to catch.
			st := &obs.SinkStats{TraceEvents: sink.Events()}
			if werr := sink.Err(); werr != nil {
				st.TraceError = werr.Error()
			}
			manifest.Obs = st
			if cerr != nil {
				return cerr
			}
			if err := traceFile.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  trace  → %s\n", traceDest)
		}
		if metricsDest != "" {
			data, err := bus.MetricsSnapshot().JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(metricsDest, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  metrics → %s\n", metricsDest)
		}
		return nil
	}

	dopts := durable.Options{
		Workers:     workers,
		CellTimeout: *cellTimeout,
		Retry:       durable.Policy{MaxRetries: *retries},
	}
	if bus != nil {
		dopts.Tracer = bus // keep the interface nil when no bus was built
	}
	if *resume && *storeDir == "" {
		return usage(fmt.Errorf("-resume needs a -store to resume from"))
	}
	if *storeDir != "" {
		s, err := durable.Open(*storeDir)
		if err != nil {
			return fail(err)
		}
		defer s.Close()
		dopts.Store = s
		dopts.Resume = *resume
	}

	m, st, err := durable.RunSpec(ctx, spec, dopts)
	manifest.Durable = st
	if dopts.Store != nil {
		fmt.Fprintf(stderr, "durable: %d cells, %d cached, %d executed, %d failed\n",
			st.Cells, st.Cached, st.Executed, st.Failed)
	}
	if err != nil && errors.Is(err, context.Canceled) && ctx.Err() != nil {
		// Interrupted: flush what the run produced so far — the partial
		// trace, the manifest with the sweep's progress — and exit 130
		// like a conventionally killed process.
		fmt.Fprintln(stderr, "smisim: interrupted")
		if ferr := finish(); ferr != nil {
			return fail(ferr)
		}
		writeManifest()
		return 130
	}
	if code := writeManifest(); code != 0 {
		return code
	}
	if err != nil && spec.Workload == "nas" && spec.Faults.Active() {
		// A fault scenario that kills the job is a result, not a tool
		// failure: report the attributed error and the recovery work that
		// preceded it.
		fmt.Fprintf(stdout, "%s.%s  nodes=%d rpn=%d: job failed under faults\n",
			spec.Params.Bench, spec.Params.Class, specNodes(spec), specRPN(spec))
		fmt.Fprintf(stdout, "  error       = %v\n", err)
		if m.NAS != nil {
			fmt.Fprintf(stdout, "  drops       = %d\n", m.NAS.Dropped)
			fmt.Fprintf(stdout, "  retransmits = %d\n", m.NAS.Retransmits)
		}
		ferr := finish()
		writeManifest()
		if ferr != nil {
			return fail(ferr)
		}
		return 0
	}
	if err != nil {
		return fail(err)
	}
	if err := printMeasurement(stdout, spec, m); err != nil {
		return fail(err)
	}
	ferr := finish()
	// The final manifest write carries the sink accounting finish just
	// recorded; a write failure there still leaves the pre-run manifest.
	writeManifest()
	if ferr != nil {
		return fail(ferr)
	}
	return 0
}

// specNodes is the spec's node count after the runner's default.
func specNodes(sp scenario.Spec) int {
	if sp.Machine.Nodes == 0 {
		return 1
	}
	return sp.Machine.Nodes
}

// specRPN is the spec's ranks-per-node after the runner's default.
func specRPN(sp scenario.Spec) int {
	if sp.Machine.RanksPerNode == 0 {
		return 1
	}
	return sp.Machine.RanksPerNode
}

// printMeasurement renders one measurement in the cell's report layout;
// workloads without a bespoke layout print their canonical JSON.
func printMeasurement(w io.Writer, spec scenario.Spec, m runner.Measurement) error {
	switch {
	case m.NAS != nil:
		res := m.NAS
		fmt.Fprintf(w, "%s.%s  ranks=%d nodes=%d rpn=%d htt=%v smm=%v\n",
			spec.Params.Bench, spec.Params.Class, res.Ranks,
			specNodes(spec), specRPN(spec), spec.Machine.HTT, res.Options.SMM)
		fmt.Fprintf(w, "  time   = %.2fs (mean of %d)\n", res.Seconds(), len(res.Times))
		fmt.Fprintf(w, "  mops   = %.1f\n", res.MOPs)
		fmt.Fprintf(w, "  smm    = %v mean per-node residency\n", res.Residency)
		fmt.Fprintf(w, "  verify = %v\n", res.Verified)
		if spec.Faults.Active() {
			fmt.Fprintf(w, "  faults = %d drops, %d retransmits, %d duplicates\n",
				res.Dropped, res.Retransmits, res.Duplicates)
		}
	case m.Convolve != nil:
		res := m.Convolve
		fmt.Fprintf(w, "convolve %v  cpus=%d interval=%dms threads=%d\n",
			res.Options.Behavior, res.Options.CPUs, res.Options.SMIIntervalMS, res.Threads)
		fmt.Fprintf(w, "  time = %.3fs ± %.3fs (mean of %d)\n",
			res.MeanTime.Seconds(), res.StdDev.Seconds(), len(res.Times))
	case m.UnixBench != nil:
		res := m.UnixBench
		fmt.Fprintf(w, "unixbench  cpus=%d interval=%dms\n",
			res.Options.CPUs, res.Options.SMIIntervalMS)
		for _, ts := range res.Tests {
			fmt.Fprintf(w, "  %-30s single %12.1f %-6s multi(%d) %12.1f\n",
				ts.Name, ts.SingleRate, ts.Unit, ts.MultiCopies, ts.MultiRate)
		}
		fmt.Fprintf(w, "  total index score: %.1f\n", res.Score)
	default:
		data, err := m.JSON()
		if err != nil {
			return err
		}
		_, err = w.Write(data)
		return err
	}
	return nil
}
