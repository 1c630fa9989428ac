package durable

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"smistudy/internal/obs"
	"smistudy/internal/parsweep"
	"smistudy/internal/runner"
	"smistudy/internal/scenario"
)

// Options configures a durable sweep execution.
type Options struct {
	// Store, when non-nil, checkpoints every finished cell. Nil runs
	// without persistence (isolation and retries still apply).
	Store *Store
	// Resume permits replaying cells the store already holds. Without
	// it every cell re-executes (and overwrites its store entry).
	Resume bool
	// Workers fans cells over this many OS threads (parsweep rules:
	// ≤ 1 sequential). Results are identical for any worker count.
	Workers int
	// CellTimeout is the per-cell wall-clock deadline; zero disables.
	// A timed-out cell fails terminally — the simulation is
	// deterministic, so re-running a hung cell hangs again.
	CellTimeout time.Duration
	// Retry bounds re-execution of transiently-failed cells.
	Retry Policy
	// Tracer, when non-nil, receives the durable layer's cell events
	// (cached, retry, timeout, fail) and every simulation event from
	// executed cells, stamped with global cell indices.
	Tracer obs.Tracer
	// Stats, when non-nil, accumulates execution accounting (cells,
	// simulated runs, engine events).
	Stats *runner.ExecStats
}

// Stats is the sweep's execution accounting; it is the manifest's
// DurableStats so CLIs attach it to run manifests directly.
type Stats = obs.DurableStats

// item is one durable execution unit: a single-repetition (or
// unsplittable) spec filed under its parent's content address.
type item struct {
	spec    scenario.Spec
	key     string
	specIdx int // position in the caller's spec slice
	cellIdx int // repetition index within the parent spec
	global  int // position across all cells of the sweep
}

// out is one cell's outcome. The measurement may be non-zero alongside
// an error (fault-scenario NAS cells report partial accounting).
type out struct {
	m      runner.Measurement
	err    error
	cached bool
}

// plan records how one caller spec maps onto cells.
type plan struct {
	first int // index of the spec's first cell in the item list
	n     int
	merge func(scenario.Spec, []runner.Measurement) (runner.Measurement, error)
}

// RunSpec executes one spec durably. See RunSpecs.
func RunSpec(ctx context.Context, sp scenario.Spec, o Options) (runner.Measurement, *Stats, error) {
	ms, errs, st := RunSpecs(ctx, []scenario.Spec{sp}, o)
	return ms[0], st, errs[0]
}

// RunSpecs executes a batch of specs through the durable path:
//
//  1. Each spec is content-addressed (Key) and decomposed into
//     per-repetition cells via its workload's Split hook (unsplittable
//     specs run as one cell).
//  2. Cells already journaled in the store replay byte-identically with
//     zero simulation work (when Resume is set); the rest execute with
//     per-cell panic isolation, wall-clock deadlines and bounded
//     transient-error retries, checkpointing each success.
//  3. Split cells are reassembled by the workload's Merge hook, which
//     is pinned byte-identical to an unsplit run.
//
// Results and errors land at their spec's input index — errs[i] is the
// lowest-cell-index failure of spec i (a *parsweep.CellError), exactly
// the error an abort-on-first-failure loop reports — and the sweep
// never aborts early: every cell of every spec is attempted unless ctx
// is canceled, in which case unattempted cells are marked Skipped.
func RunSpecs(ctx context.Context, specs []scenario.Spec, o Options) ([]runner.Measurement, []error, *Stats) {
	st := &Stats{}
	ms := make([]runner.Measurement, len(specs))
	errsOut := make([]error, len(specs))
	plans := make([]plan, len(specs))
	var items []item
	for i, sp := range specs {
		sp2, err := PlanSpec(sp, o.Store)
		if err != nil {
			errsOut[i] = err
			plans[i] = plan{first: -1}
			continue
		}
		plans[i] = plan{first: len(items), n: len(sp2.Cells), merge: sp2.Merge}
		for j, c := range sp2.Cells {
			items = append(items, item{spec: c, key: sp2.Key, specIdx: i, cellIdx: j, global: len(items)})
		}
	}
	atomic.AddInt64(&st.Cells, int64(len(items)))

	outs, perrs := parsweep.RunPartial(ctx, items, o.Workers, func(it item) (out, error) {
		return runItem(ctx, it, o, st), nil
	})
	// runItem never returns an error to RunPartial, so perrs entries are
	// cancellation markers for cells that were never attempted.
	for gi := range outs {
		if perrs[gi] == nil || outs[gi].err != nil {
			continue
		}
		var ce *parsweep.CellError
		cause := perrs[gi]
		if errors.As(perrs[gi], &ce) {
			cause = ce.Err
		}
		outs[gi].err = cause
		atomic.AddInt64(&st.Skipped, 1)
	}

	for i := range specs {
		p := plans[i]
		if p.first < 0 {
			continue // rejected before planning
		}
		cells := outs[p.first : p.first+p.n]
		var firstErr error
		for j, co := range cells {
			if co.err != nil {
				firstErr = &parsweep.CellError{Index: j, Err: co.err}
				break
			}
		}
		if firstErr != nil {
			errsOut[i] = firstErr
			if p.n == 1 {
				// Unsplit fault-scenario cells carry partial accounting
				// alongside their error; pass the section through.
				ms[i] = cells[0].m
			}
			continue
		}
		if p.n == 1 && p.merge == nil {
			ms[i] = cells[0].m
			continue
		}
		parts := make([]runner.Measurement, p.n)
		for j, co := range cells {
			parts[j] = co.m
		}
		m, err := p.merge(specs[i], parts)
		if err != nil {
			errsOut[i] = err
			continue
		}
		ms[i] = m
	}
	return ms, errsOut, st
}

// execute is the cell execution seam; tests swap it for flaky, slow or
// panicking workloads without inventing spec shapes for them.
var execute = runner.RunWith

// runItem runs one cell end to end: cache replay, attempt loop with
// deadline and retry, checkpoint on success. It never returns through
// panic — execution is recovered into a *parsweep.PanicError.
func runItem(ctx context.Context, it item, o Options, st *Stats) out {
	if o.Store != nil && o.Resume && o.Store.Has(it.key, it.cellIdx) {
		if data, err := o.Store.Get(it.key, it.cellIdx); err == nil {
			var m runner.Measurement
			if json.Unmarshal(data, &m) == nil {
				atomic.AddInt64(&st.Cached, 1)
				emit(o.Tracer, obs.Event{Type: obs.EvSweepCellCached, Run: int32(it.global), Node: -1})
				return out{m: m, cached: true}
			}
		}
		// Unreadable or corrupt cache entry: fall through and re-execute.
	}
	x := runner.Exec{
		Workers: 1,
		Tracer:  obs.WithRun(o.Tracer, int32(it.global)),
		Stats:   o.Stats,
	}
	for attempt := 1; ; attempt++ {
		atomic.AddInt64(&st.Attempts, 1)
		m, err := execCell(ctx, it.spec, x, o.CellTimeout)
		if err == nil {
			atomic.AddInt64(&st.Executed, 1)
			if o.Store != nil {
				if perr := persist(o.Store, it, m); perr != nil {
					// A cell whose checkpoint failed is a failed cell:
					// the resume guarantee depends on the write.
					atomic.AddInt64(&st.Failed, 1)
					emit(o.Tracer, obs.Event{Type: obs.EvSweepCellFail, Run: int32(it.global), Node: -1, A: int64(attempt), Name: "store"})
					return out{m: m, err: perr}
				}
			}
			return out{m: m}
		}
		var cause string
		var pe *parsweep.PanicError
		switch {
		case errors.Is(err, ErrCellTimeout):
			atomic.AddInt64(&st.Timeouts, 1)
			emit(o.Tracer, obs.Event{Type: obs.EvSweepCellTimeout, Run: int32(it.global), Node: -1, A: int64(attempt)})
			cause = "timeout"
		case errors.As(err, &pe):
			atomic.AddInt64(&st.Panics, 1)
			cause = "panic"
		case Transient(err) && attempt <= o.Retry.MaxRetries:
			atomic.AddInt64(&st.Retries, 1)
			emit(o.Tracer, obs.Event{Type: obs.EvSweepCellRetry, Run: int32(it.global), Node: -1, A: int64(attempt + 1), Name: "transient"})
			if !sleep(ctx, o.Retry.backoff(attempt)) {
				atomic.AddInt64(&st.Failed, 1)
				emit(o.Tracer, obs.Event{Type: obs.EvSweepCellFail, Run: int32(it.global), Node: -1, A: int64(attempt), Name: "canceled"})
				return out{m: m, err: ctx.Err()}
			}
			continue
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			cause = "canceled"
		default:
			cause = "error"
		}
		atomic.AddInt64(&st.Failed, 1)
		emit(o.Tracer, obs.Event{Type: obs.EvSweepCellFail, Run: int32(it.global), Node: -1, A: int64(attempt), Name: cause})
		return out{m: m, err: err}
	}
}

// persist checkpoints a successful cell measurement.
func persist(s *Store, it item, m runner.Measurement) error {
	data, err := m.JSON()
	if err != nil {
		return err
	}
	return s.Put(it.key, it.cellIdx, data)
}

// execCell runs one attempt, racing it against the cell deadline and
// ctx. The simulation is uninterruptible, so a timed-out or canceled
// attempt abandons its goroutine — the goroutine finishes its (bounded)
// simulated work and its result is discarded.
func execCell(ctx context.Context, sp scenario.Spec, x runner.Exec, timeout time.Duration) (runner.Measurement, error) {
	// Capture the execution seam before any goroutine exists: an
	// abandoned (timed-out) attempt must keep the function it started
	// with rather than observe a later swap.
	fn := execute
	if timeout <= 0 {
		if err := ctx.Err(); err != nil {
			return runner.Measurement{}, err
		}
		return safeExec(fn, sp, x)
	}
	type res struct {
		m   runner.Measurement
		err error
	}
	ch := make(chan res, 1)
	go func() {
		m, err := safeExec(fn, sp, x)
		ch <- res{m, err}
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.m, r.err
	case <-t.C:
		return runner.Measurement{}, fmt.Errorf("%w (%v)", ErrCellTimeout, timeout)
	case <-ctx.Done():
		return runner.Measurement{}, ctx.Err()
	}
}

// safeExec converts a panicking execution into a *parsweep.PanicError,
// the same isolation contract parsweep gives its own workers — needed
// here because deadline races run the cell on a goroutine of their own.
func safeExec(fn func(scenario.Spec, runner.Exec) (runner.Measurement, error), sp scenario.Spec, x runner.Exec) (m runner.Measurement, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &parsweep.PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(sp, x)
}

func emit(tr obs.Tracer, ev obs.Event) {
	if tr != nil {
		tr.Emit(ev)
	}
}
