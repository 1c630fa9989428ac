package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"smistudy/internal/obs"
	"smistudy/internal/report"
	"smistudy/internal/runner"
	"smistudy/internal/scenario"
)

// simBench drives the simulation workloads: each operation is one cell,
// from parsing its spec JSON to a checked measurement, run with the CLI
// defaults (fast path off, one shard, sequential repetitions).
type simBench struct {
	c      config
	cells  []cell
	traced bool        // attach a Chrome trace sink and run the report pipeline
	want   []float64   // golden value per cell (NaN: no anchor)
	first  []string    // first digest seen per cell in this run
	runs   []int       // executions per cell in this run
	latMS  [][]float64 // measured latencies per cell, for the slowest-cells line
	op     int64       // operation counter, the span op id

	layer *layerStats // traced phase accounting; nil when untraced
}

// layerStats accumulates what the traced phase counts per cell.
type layerStats struct {
	cells       int64
	counters    map[string]int64 // obs.Bus registry counters summed over ids
	mallocs     uint64
	allocBytes  uint64
	traceEvents int64
	traceBytes  int64
}

// cellOut is what one cell produced besides its measurement.
type cellOut struct {
	m           runner.Measurement
	bus         *obs.Bus
	tracePath   string
	traceEvents int64
	traceBytes  int64
}

func simRunner(gen func(seed int64) []cell, traced bool) func(config) (outcome, map[string]metric, error) {
	return func(c config) (outcome, map[string]metric, error) {
		b := &simBench{c: c, cells: gen(c.seed), traced: traced}
		docs := make([][]byte, len(b.cells))
		for i, cl := range b.cells {
			docs[i] = cl.doc
		}
		fmt.Fprintf(c.log, "inputs: seed=%d cells=%d sha256=%s\n", c.seed, len(b.cells), inputDigest(docs))
		if c.rssPass {
			return b.onePass()
		}
		if c.spans == nil {
			return b.endToEnd()
		}
		return b.perLayer()
	}
}

// setup resolves the golden anchors, parses and validates every input,
// and warms up by running the anchor cells once.
func (b *simBench) setup() error {
	b.want = make([]float64, len(b.cells))
	b.first = make([]string, len(b.cells))
	b.runs = make([]int, len(b.cells))
	b.latMS = make([][]float64, len(b.cells))
	for i, cl := range b.cells {
		b.want[i] = math.NaN()
		if cl.anchor != nil {
			v, err := cl.anchor.want(b.c.goldenDir())
			if err != nil {
				return err
			}
			b.want[i] = v
		}
		sp, err := scenario.Parse(cl.doc)
		if err != nil {
			return fmt.Errorf("%s: %w", cl.name, err)
		}
		if err := runner.Validate(sp); err != nil {
			return fmt.Errorf("%s: %w", cl.name, err)
		}
	}
	for i, cl := range b.cells {
		if cl.anchor == nil {
			continue
		}
		out, err := b.runCell(i, -1)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", cl.name, err)
		}
		if err := b.check(i, out); err != nil {
			return fmt.Errorf("warm-up %s: %w", cl.name, err)
		}
	}
	return nil
}

func (b *simBench) endToEnd() (outcome, map[string]metric, error) {
	var setups []time.Duration
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return outcome{}, nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	o := b.phase(0, b.c.window, false)
	b.recheck(&o)
	b.logSlowest()
	rss, checked, err := freshPeakRSS(b.c)
	if err != nil {
		return outcome{}, nil, err
	}
	o.rssMiB = rss
	m := endToEnd(b.c, "cell", o, setups)
	// The children's cells count as attempted operations, and their
	// failures as failures, but outside every timed metric.
	o.attempted += checked.attempted
	o.failed += checked.failed
	o.wrong += checked.wrong
	return o, m, nil
}

// onePass is the work of an --rss-pass child: set up once, run and
// check one pass of every cell, and report this process's peak RSS.
func (b *simBench) onePass() (outcome, map[string]metric, error) {
	if err := b.setup(); err != nil {
		return outcome{}, nil, err
	}
	o := b.phase(1, 0, true)
	rss := peakRSSMiB()
	if rss == 0 {
		return outcome{}, nil, fmt.Errorf("peak RSS unavailable")
	}
	return o, map[string]metric{"peak_rss_mb": {rss, "MiB"}}, nil
}

// perLayer runs whole passes untraced for a third of the window, then
// the same passes traced, and reports the per-layer metrics.
func (b *simBench) perLayer() (outcome, map[string]metric, error) {
	spans := b.c.spans
	b.c.spans = nil
	if err := b.setup(); err != nil {
		return outcome{}, nil, err
	}
	plain := b.phase(0, b.c.window/3, true)
	passes := int(plain.attempted) / len(b.cells)

	b.c.spans = spans
	b.layer = &layerStats{counters: map[string]int64{}}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return outcome{}, nil, fmt.Errorf("cpu profile: %w", err)
	}
	traced := b.phase(passes, 0, true)
	pprof.StopCPUProfile()
	b.recheck(&traced)

	m, err := layerMetrics(b.c.spans, b.layer, prof.Bytes())
	if err != nil {
		return outcome{}, nil, err
	}
	m["bench.trace_overhead_frac"] = metric{traced.wall.Seconds()/plain.wall.Seconds() - 1, "ratio"}
	m["fail_frac"] = failFrac(traced)
	fmt.Fprintf(b.c.log, "traced: %d passes, %d cells; untraced %.3fs, traced %.3fs\n",
		passes, traced.attempted, plain.wall.Seconds(), traced.wall.Seconds())
	return traced, m, nil
}

// phase runs cells in seeded per-pass orders: exactly passes whole
// passes when passes > 0, otherwise until window has elapsed (finishing
// the current pass when whole is set). Each whole pass adds a
// throughput sample: its successful cells over its cells' summed
// latency, so checks between cells do not count.
func (b *simBench) phase(passes int, window time.Duration, whole bool) outcome {
	var o outcome
	t0 := time.Now()
	for pass := 0; passes == 0 || pass < passes; pass++ {
		order := newRand(b.c.seed, uint64(100+pass)).Perm(len(b.cells))
		var busy time.Duration
		ok := 0
		for n, i := range order {
			if passes == 0 && !whole && time.Since(t0) >= window {
				break
			}
			b.op++
			start := time.Now()
			out, err := b.runCell(i, b.op)
			lat := time.Since(start)
			busy += lat
			o.record(lat, err != nil)
			b.latMS[i] = append(b.latMS[i], float64(lat)/float64(time.Millisecond))
			if err != nil {
				fmt.Fprintf(b.c.log, "cell %s: %v\n", b.cells[i].name, err)
				continue
			}
			b.account(out)
			if err := b.check(i, out); err != nil {
				fmt.Fprintf(b.c.log, "cell %s: %v\n", b.cells[i].name, err)
				o.markWrong()
				continue
			}
			ok++
			if n == len(order)-1 {
				o.rates = append(o.rates, float64(ok)/busy.Seconds())
			}
		}
		if passes == 0 && time.Since(t0) >= window {
			break
		}
	}
	o.wall = time.Since(t0)
	return o
}

// runCell executes cell i the way a user does: parse its spec JSON,
// validate it, run it; for the trace workload with a Chrome trace sink
// on the run and report.Build (with its attribution Check) after it.
// op < 0 marks warm-up executions, which record no spans or counts.
func (b *simBench) runCell(i int, op int64) (cellOut, error) {
	tr := b.c.spans
	if op < 0 {
		tr = nil
	}
	root := tr.begin(op, "cell", -1)
	defer tr.end(root)

	h := tr.begin(op, "scenario.parse", root)
	sp, err := scenario.Parse(b.cells[i].doc)
	tr.end(h)
	if err != nil {
		return cellOut{}, err
	}
	h = tr.begin(op, "runner.validate", root)
	err = runner.Validate(sp)
	tr.end(h)
	if err != nil {
		return cellOut{}, err
	}

	var out cellOut
	x := runner.Exec{}
	var sink *obs.ChromeSink
	var tf *os.File
	var bw *bufio.Writer
	if b.traced || b.layer != nil && op >= 0 {
		out.bus = obs.NewBus()
		x.Tracer = out.bus
	}
	if b.traced {
		out.tracePath = filepath.Join(b.c.work, "cell.trace")
		if tf, err = os.Create(out.tracePath); err != nil {
			return cellOut{}, err
		}
		defer tf.Close()
		bw = bufio.NewWriterSize(tf, 1<<16)
		sink = obs.NewChromeSink(bw)
		out.bus.Attach(sink)
	}

	var before [2]metrics.Sample
	if b.layer != nil && op >= 0 {
		readAllocs(&before)
	}
	h = tr.begin(op, "runner.run", root)
	out.m, err = runner.RunWith(sp, x)
	tr.end(h)
	if b.layer != nil && op >= 0 {
		var after [2]metrics.Sample
		readAllocs(&after)
		b.layer.allocBytes += after[0].Value.Uint64() - before[0].Value.Uint64()
		b.layer.mallocs += after[1].Value.Uint64() - before[1].Value.Uint64()
	}
	if err != nil {
		return cellOut{}, err
	}
	if sink == nil {
		return out, nil
	}

	h = tr.begin(op, "obs.trace_close", root)
	err = sink.Close()
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tf.Close()
	}
	tr.end(h)
	if err != nil {
		return cellOut{}, fmt.Errorf("trace sink: %w", err)
	}
	out.traceEvents = sink.Events()
	if fi, err := os.Stat(out.tracePath); err == nil {
		out.traceBytes = fi.Size()
	}
	h = tr.begin(op, "report.build", root)
	rep, err := report.Build(report.Inputs{TracePath: out.tracePath})
	tr.end(h)
	if err != nil {
		return cellOut{}, err
	}
	if len(rep.Violations) > 0 {
		return cellOut{}, fmt.Errorf("report check: %d attribution violations, first %+v", len(rep.Violations), rep.Violations[0])
	}
	return out, nil
}

var allocMetrics = [2]string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"}

func readAllocs(s *[2]metrics.Sample) {
	s[0].Name, s[1].Name = allocMetrics[0], allocMetrics[1]
	metrics.Read(s[:])
}

// account adds a traced cell's counters to the phase totals.
func (b *simBench) account(out cellOut) {
	if b.layer == nil {
		return
	}
	b.layer.cells++
	b.layer.traceEvents += out.traceEvents
	b.layer.traceBytes += out.traceBytes
	if out.bus != nil {
		sumCounters(b.layer.counters, out.bus.MetricsSnapshot())
	}
}

// check verifies one cell's output outside the timed region: its
// digest matches the committed digest (default seed) and every earlier
// execution of the cell in this run, an anchor matches its golden
// value, and a traced cell's trace reads back whole.
func (b *simBench) check(i int, out cellOut) error {
	cl := b.cells[i]
	data, err := out.m.JSON()
	if err != nil {
		return err
	}
	d, err := digest(data)
	if err != nil {
		return err
	}
	b.runs[i]++
	if b.c.expected != nil {
		if want, ok := b.c.expected[cl.name]; !ok || want != d {
			return fmt.Errorf("wrong output: digest %s, committed %q", d, want)
		}
	}
	if b.first[i] == "" {
		b.first[i] = d
	} else if b.first[i] != d {
		return fmt.Errorf("wrong output: digest %s, first execution gave %s", d, b.first[i])
	}
	if !math.IsNaN(b.want[i]) {
		got, ok := value(out.m)
		if !ok || got != b.want[i] {
			return fmt.Errorf("wrong output: anchor %s/%s = %v, golden %v", cl.anchor.file, cl.anchor.what, got, b.want[i])
		}
	}
	if out.tracePath == "" {
		return nil
	}
	h := b.c.spans.begin(b.op, "check", -1)
	defer b.c.spans.end(h)
	f, err := os.Open(out.tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	r := b.c.spans.begin(b.op, "obs.read_trace", h)
	t, err := obs.ReadTrace(f)
	b.c.spans.end(r)
	if err != nil {
		return err
	}
	if t.Truncated || t.Records != out.traceEvents || len(t.RunIDs()) != 1 {
		return fmt.Errorf("wrong output: trace read back %d records (truncated=%v, %d runs), sink wrote %d",
			t.Records, t.Truncated, len(t.RunIDs()), out.traceEvents)
	}
	return nil
}

// logSlowest prints the cells with the highest median latency.
func (b *simBench) logSlowest() {
	idx := make([]int, len(b.cells))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return median(b.latMS[idx[x]]) > median(b.latMS[idx[y]]) })
	fmt.Fprint(b.c.log, "slowest cells (median ms):")
	for _, i := range idx[:min(5, len(idx))] {
		fmt.Fprintf(b.c.log, " %s=%.1f", b.cells[i].name, median(b.latMS[i]))
	}
	fmt.Fprintln(b.c.log)
}

// recheckSample is how many cells run once more, untraced, after the
// measured phase.
const recheckSample = 3

// recheck re-runs a seeded sample of executed cells without any tracer
// and requires byte-identical output: determinism for seeds without
// committed digests, and tracing never changing a result.
func (b *simBench) recheck(o *outcome) {
	r := newRand(b.c.seed, 7)
	for k := 0; k < recheckSample; k++ {
		i := r.IntN(len(b.cells))
		if b.runs[i] == 0 {
			continue
		}
		d, err := runDigest(b.cells[i].doc)
		if err != nil || d != b.first[i] {
			fmt.Fprintf(b.c.log, "recheck %s: digest %s (err %v), measured %s\n", b.cells[i].name, d, err, b.first[i])
			o.markWrong()
		}
	}
}

// layerMetrics derives the per-layer metrics of a simulation workload's
// traced phase.
func layerMetrics(tr *tracer, ls *layerStats, profile []byte) (map[string]metric, error) {
	m := zeroLayerMetrics()
	cells := float64(max(ls.cells, 1))
	m["scenario.parse_us_p50"] = metric{median(tr.durations("scenario.parse")) * 1e3, "us"}
	runMS := tr.durations("runner.run")
	m["runner.run_ms_p50"] = metric{median(runMS), "ms"}
	m["runner.mallocs_per_cell"] = metric{float64(ls.mallocs) / cells, "count"}
	m["runner.alloc_mb_per_cell"] = metric{float64(ls.allocBytes) / cells / (1 << 20), "MiB"}
	m["obs.read_trace_ms_p50"] = metric{median(tr.durations("obs.read_trace")), "ms"}
	m["report.build_ms_p50"] = metric{median(tr.durations("report.build")), "ms"}

	addCounterMetrics(m, ls.counters, ls.cells)
	if f := ls.counters["engine_events_fired"]; f > 0 {
		var total float64
		for _, v := range runMS {
			total += v
		}
		m["sim.host_ns_per_event"] = metric{total * 1e6 / float64(f), "ns"}
	}
	m["obs.trace_events_per_cell"] = metric{float64(ls.traceEvents) / cells, "count"}
	m["obs.trace_bytes_per_cell"] = metric{float64(ls.traceBytes) / cells, "B"}
	if err := addCPUShares(m, profile); err != nil {
		return nil, err
	}
	return m, nil
}
