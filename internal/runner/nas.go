package runner

import (
	"context"
	"fmt"

	"smistudy/internal/cluster"
	"smistudy/internal/faults"
	"smistudy/internal/metrics"
	"smistudy/internal/mpi"
	"smistudy/internal/nas"
	"smistudy/internal/obs"
	"smistudy/internal/parsweep"
	"smistudy/internal/perturb"
	"smistudy/internal/scenario"
	"smistudy/internal/sim"
	"smistudy/internal/smm"
)

// NASOptions configures one cell of the paper's MPI study.
type NASOptions struct {
	Bench        nas.Benchmark
	Class        nas.Class
	Nodes        int // cluster nodes (paper: 1–16)
	RanksPerNode int // 1 or 4 in the paper
	HTT          bool
	SMM          smm.Level
	// Runs averages this many runs with seeds Seed, Seed+1, ... (paper:
	// six). Zero means one.
	Runs int
	Seed int64
	// Workers fans the independent runs over this many OS threads
	// (each run has its own simulation engine). ≤ 1 runs sequentially;
	// any value yields bit-identical results. Execution-only: excluded
	// from the serialized measurement so stored results are a pure
	// function of the measured cell.
	Workers int `json:"-"`
	// Faults, when non-nil and active, arms the fault scenario on every
	// run. A plan that can lose messages automatically switches the MPI
	// runtime to its reliable (ack/retransmit) transport, and the
	// progress watchdog is armed so faulted runs fail in bounded
	// simulated time instead of hanging.
	Faults *FaultPlan
	// Watchdog overrides the MPI progress-watchdog interval (zero =
	// default, negative = disabled).
	Watchdog sim.Time
	// SMIScale multiplies the SMI duration range when > 0 and ≠ 1 — a
	// deliberate physics perturbation for sensitivity studies and for
	// the fidelity harness's negative tests. Zero leaves the paper's
	// calibrated durations untouched.
	SMIScale float64
	// Jitter provisions OS-jitter noise sources on every node (the
	// second noise family after SMM). Seeds are spec-level: each run
	// mixes its run seed, each node its index, so repetitions and
	// nodes decorrelate replayably. Empty means no jitter.
	Jitter []perturb.JitterConfig `json:",omitempty"`
	// SMTShares sets per-physical-core asymmetric SMT slot shares
	// (empty = the symmetric split; see cpu.Params.SMTShares).
	SMTShares []float64 `json:",omitempty"`
	// Tracer, when non-nil, receives every observability event from
	// every run (SMM episodes, scheduling, MPI traffic, network drops,
	// fault activations), each stamped with its run index. Safe with
	// Workers > 1 when the tracer is an *obs.Bus or otherwise
	// concurrency-safe. Execution-only: excluded from the serialized
	// measurement (tracing cannot change a result).
	Tracer obs.Tracer `json:"-"`
	// Stats, when non-nil, accumulates simulated-run and engine-event
	// counts. Execution-only accounting: cannot change a result.
	Stats *ExecStats `json:"-"`
}

// NASResult is a measured cell.
type NASResult struct {
	Options   NASOptions
	Ranks     int
	MeanTime  sim.Time
	Times     []sim.Time
	MOPs      float64 // from the mean time
	Verified  bool
	Residency sim.Time // mean per-node SMM residency per run

	// Fault-scenario accounting, summed over runs: messages the fabric
	// dropped and the reliable transport's recovery activity.
	Dropped     int64
	Retransmits int64
	Duplicates  int64
}

// Seconds is shorthand for MeanTime in seconds.
func (r NASResult) Seconds() float64 { return r.MeanTime.Seconds() }

// RunNAS executes one configuration of the MPI study.
func RunNAS(o NASOptions) (NASResult, error) {
	if o.Nodes <= 0 || o.RanksPerNode <= 0 {
		return NASResult{}, fmt.Errorf("smistudy: need Nodes and RanksPerNode ≥ 1")
	}
	runs := o.Runs
	if runs <= 0 {
		runs = 1
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	// The fault plan is lowered to a schedule exactly once; the same
	// schedule drives the transport selection here and the injection
	// inside every run.
	var sched faults.Schedule
	if o.Faults != nil {
		sched = o.Faults.Schedule()
	}
	par := mpi.DefaultParams()
	if sched.Lossy() {
		par = mpi.ReliableParams()
	}
	par.Watchdog = o.Watchdog
	// Each run owns a fresh engine and cluster, so runs are fanned over
	// o.Workers threads and folded back in input order — byte-identical
	// to the sequential loop this replaces. Errors ride inside the
	// per-run output (never through the pool) so a failed run's
	// transport accounting is still folded in, exactly as before.
	type runOut struct {
		setupErr error
		runErr   error
		ranks    int
		time     sim.Time
		verified bool
		resid    sim.Time

		dropped, retransmits, duplicates int64
	}
	idx := make([]int, runs)
	for i := range idx {
		idx[i] = i
	}
	outs, _ := parsweep.Run(context.Background(), idx, o.Workers, func(i int) (runOut, error) {
		var out runOut
		e := sim.New(seed + int64(i))
		cp := cluster.Wyeast(o.Nodes, o.HTT, o.SMM)
		cp.Node.SMI.DurationScale = o.SMIScale
		cp.Node.CPU.SMTShares = o.SMTShares
		cp.Node.Jitter = jitterForRun(o.Jitter, seed+int64(i))
		cl, err := cluster.New(e, cp)
		if err != nil {
			out.setupErr = err
			return out, nil
		}
		rt := wireRun(o.Tracer, i, e, cl)
		cellStart(rt, seed+int64(i))
		cl.StartSMI()
		w, err := mpi.NewWorld(cl, o.RanksPerNode, par)
		if err != nil {
			out.setupErr = err
			return out, nil
		}
		w.SetTracer(rt)
		if !sched.Empty() {
			inj, err := cl.Inject(sched)
			if err != nil {
				out.setupErr = err
				return out, nil
			}
			w.SetFaultObserver(inj)
		}
		r, runErr := nas.Run(w, nas.Spec{Bench: o.Bench, Class: o.Class})
		cellFinish(rt, e, seed+int64(i))
		o.Stats.AddRun(e.Events())
		// Transport accounting is valid even for a failed run — report
		// how much recovery work preceded the failure.
		out.dropped = cl.Fabric.Stats().Drops
		ts := w.TransportStats()
		out.retransmits = ts.Retransmits
		out.duplicates = ts.Duplicates
		out.runErr = runErr
		if runErr == nil {
			out.ranks = r.Ranks
			out.time = r.Time
			out.verified = r.Verified
			out.resid = cl.TotalSMMResidency() / sim.Time(len(cl.Nodes))
		}
		return out, nil
	})
	res := NASResult{Options: o, Verified: true}
	var stream metrics.Stream
	var residency sim.Time
	for _, out := range outs {
		if out.setupErr != nil {
			return NASResult{}, out.setupErr
		}
		res.Dropped += out.dropped
		res.Retransmits += out.retransmits
		res.Duplicates += out.duplicates
		if out.runErr != nil {
			return res, out.runErr
		}
		res.Ranks = out.ranks
		res.Times = append(res.Times, out.time)
		res.Verified = res.Verified && out.verified
		stream.Add(out.time.Seconds())
		residency += out.resid
	}
	res.MeanTime = sim.FromSeconds(stream.Mean())
	res.Residency = residency / sim.Time(runs)
	res.MOPs = nas.MOPs(nas.Spec{Bench: o.Bench, Class: o.Class}, stream.Mean())
	return res, nil
}

func init() {
	Register(Workload{
		Name:     "nas",
		Summary:  "NAS Parallel Benchmark cell on the MPI study cluster (Tables 1–5)",
		Validate: validateNASSpec,
		Run: func(sp scenario.Spec, x Exec) (Measurement, error) {
			o, err := nasOptions(sp, x)
			if err != nil {
				return Measurement{}, err
			}
			res, err := RunNAS(o)
			// A fault-scenario failure still carries its transport
			// accounting; expose the partial section alongside the error.
			if err != nil && o.Faults == nil {
				return Measurement{}, err
			}
			return Measurement{NAS: &res}, err
		},
		Split: splitNASSpec,
		Merge: mergeNASSpec,
	})
}

// splitNASSpec decomposes a multi-run NAS spec into per-repetition
// cells. Fault scenarios are not split: a faulted job's abort
// semantics (stop at the first failing repetition, accumulate partial
// transport accounting) are defined over the whole repetition sequence.
func splitNASSpec(sp scenario.Spec) []scenario.Spec {
	if sp.Faults.Active() {
		return nil
	}
	return SplitRuns(sp)
}

// mergeNASSpec reassembles a NAS measurement from its per-repetition
// cells with exactly the arithmetic RunNAS applies to its own runs, so
// the merged result is byte-identical to an unsplit run.
func mergeNASSpec(sp scenario.Spec, parts []Measurement) (Measurement, error) {
	o, err := nasOptions(sp, Exec{})
	if err != nil {
		return Measurement{}, err
	}
	res := NASResult{Options: o, Verified: true}
	var stream metrics.Stream
	var residency sim.Time
	for i, p := range parts {
		if p.NAS == nil || len(p.NAS.Times) != 1 {
			return Measurement{}, fmt.Errorf("runner: nas merge: cell %d is not a single-run NAS measurement", i)
		}
		res.Dropped += p.NAS.Dropped
		res.Retransmits += p.NAS.Retransmits
		res.Duplicates += p.NAS.Duplicates
		res.Ranks = p.NAS.Ranks
		res.Times = append(res.Times, p.NAS.Times[0])
		res.Verified = res.Verified && p.NAS.Verified
		stream.Add(p.NAS.Times[0].Seconds())
		residency += p.NAS.Residency
	}
	res.MeanTime = sim.FromSeconds(stream.Mean())
	res.Residency = residency / sim.Time(len(parts))
	res.MOPs = nas.MOPs(nas.Spec{Bench: o.Bench, Class: o.Class}, stream.Mean())
	return Measurement{Name: sp.Name, Workload: sp.Workload, NAS: &res}, nil
}

func validateNASSpec(sp scenario.Spec) error {
	_, err := nasOptions(sp, Exec{})
	return err
}

// nasOptions lowers a scenario spec onto the typed NAS entry point.
func nasOptions(sp scenario.Spec, x Exec) (NASOptions, error) {
	bench, err := parseBench(sp.Params.Bench)
	if err != nil {
		return NASOptions{}, err
	}
	class, err := parseClass(sp.Params.Class)
	if err != nil {
		return NASOptions{}, err
	}
	eff := sp.EffectiveSMM()
	level, err := parseLevel(eff.Level)
	if err != nil {
		return NASOptions{}, err
	}
	// The MPI study machine fires its SMIs at the paper's fixed 1/s; a
	// different interval in the spec would be silently ignored.
	if eff.IntervalMS != 0 && eff.IntervalMS != 1000 {
		return NASOptions{}, fmt.Errorf("the MPI study injects at a fixed 1000 ms (got smm.interval_ms=%d)", eff.IntervalMS)
	}
	if sp.Machine.CPUs != 0 {
		return NASOptions{}, fmt.Errorf("machine.cpus applies to single-node workloads (use machine.ranks_per_node and htt)")
	}
	shares, err := specSMTShares(sp)
	if err != nil {
		return NASOptions{}, err
	}
	nodes := sp.Machine.Nodes
	if nodes == 0 {
		nodes = 1
	}
	rpn := sp.Machine.RanksPerNode
	if rpn == 0 {
		rpn = 1
	}
	return NASOptions{
		Bench:        bench,
		Class:        class,
		Nodes:        nodes,
		RanksPerNode: rpn,
		HTT:          sp.Machine.HTT,
		SMM:          level,
		Runs:         sp.Runs,
		Seed:         sp.Seed,
		Workers:      x.Workers,
		Faults:       LowerFaults(sp.Faults),
		Watchdog:     sim.FromSeconds(sp.WatchdogS),
		SMIScale:     eff.SMIScale,
		Jitter:       LowerJitter(sp),
		SMTShares:    shares,
		Tracer:       x.Tracer,
		Stats:        x.Stats,
	}, nil
}
