package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"smistudy/internal/durable"
	"smistudy/internal/obs"
	"smistudy/internal/runner"
	"smistudy/internal/scenario"
	"smistudy/internal/serve"
)

// Sweep-service shape: two closed-loop clients against a two-worker
// server whose store holds preseedCells results before the first
// submission.
const (
	serviceClients = 2
	serviceWorkers = 2
	preseedCells   = 40
)

// rssAtSubmissions is when the service run reads its peak RSS. The
// server keeps every job for its lifetime, so memory grows with the
// submissions served; reading it after a fixed number keeps a faster
// server from reading as a memory regression.
const rssAtSubmissions = 4000

// submission is one generated POST /v1/sweeps body. specs holds the
// spec documents of a specs submission (nil for a grid), anchors the
// golden pins by spec index.
type submission struct {
	name    string
	body    []byte
	specs   [][]byte
	anchors map[int]*anchor
}

// preseedSpecs are the pool written to the store during setup, EP and
// Convolve cells in turn, that repeat submissions later replay.
func preseedSpecs(seed int64) [][]byte {
	r := newRand(seed, 4)
	out := make([][]byte, preseedCells)
	for i := range out {
		name := fmt.Sprintf("preseed-%d", i)
		if i%2 == 0 {
			out[i] = encode(epSpec(r, name))
		} else {
			out[i] = encode(convolveSpec(r, name, 1+r.IntN(2), 0))
		}
	}
	return out
}

// epSpec draws a 4-node EP class A cell; the seed picks its SMM level
// and run seed, which barely change its cost.
func epSpec(r *rand.Rand, name string) scenario.Spec {
	return scenario.Spec{
		Name: name, Workload: "nas",
		Machine: scenario.Machine{Nodes: 4},
		SMM:     scenario.SMMPlan{Level: []string{"none", "short", "long"}[r.IntN(3)]},
		Seed:    1 + r.Int64N(1<<40),
		Params:  scenario.Params{Bench: "EP", Class: "A"},
	}
}

// convolveSpec draws a Convolve cell with SMIs every 400–600 ms. Fresh
// submissions use four passes, which simulate in about a millisecond
// like the EP cells, so the two workers rarely queue work behind one
// and the service's own layers dominate each submission; the pre-seeded
// pool uses the default passes (0), so set-up is mostly simulation
// rather than file writes.
func convolveSpec(r *rand.Rand, name string, cpus, passes int) scenario.Spec {
	return scenario.Spec{
		Name: name, Workload: "convolve",
		Machine: scenario.Machine{CPUs: cpus},
		SMM:     scenario.SMMPlan{IntervalMS: 10 * (40 + r.IntN(21))},
		Seed:    1 + r.Int64N(1<<40),
		Params:  scenario.Params{Cache: []string{"friendly", "unfriendly"}[r.IntN(2)], Passes: passes},
	}
}

// submissionAt generates client c's k-th submission, deterministic in
// (seed, c, k). In every five, two repeat an earlier spec: one from the
// pre-seeded pool (a store replay) and one the other client submitted
// fresh (a store replay once that finished, a coalesced waiter while it
// runs). The other three are fresh: a single EP spec, an EP grid over
// three seeds, and a Convolve spec or a Convolve grid over 1 and 2 CPUs.
// Client 0 opens with the golden anchors.
func submissionAt(seed int64, preseed [][]byte, c, k int) submission {
	return generate(seed, preseed, c, k, fmt.Sprintf("client-%d", c))
}

// generate builds client c's k-th submission on behalf of client.
func generate(seed int64, preseed [][]byte, c, k int, client string) submission {
	if c == 0 && k == 0 {
		return anchorSubmission(client)
	}
	r := newRand(seed, uint64(1000+c)<<32|uint64(k))
	name := fmt.Sprintf("c%d-%d", c, k)
	switch k % 5 {
	case 0:
		return specsSubmission(client, name+"-ep", encode(epSpec(r, name+"-ep")))
	case 1:
		return specsSubmission(client, name+"-preseed", preseed[r.IntN(len(preseed))])
	case 2:
		seeds := make([]json.RawMessage, 3)
		for i := range seeds {
			seeds[i] = json.RawMessage(fmt.Sprint(1 + r.Int64N(1<<40)))
		}
		return gridSubmission(client, name+"-ep-grid", scenario.Grid{Base: epSpec(r, name+"-ep-grid"),
			Axes: []scenario.Axis{{Path: "seed", Values: seeds}}})
	case 3:
		j := r.IntN(k + 1)
		for j == 0 || j%5 == 1 || j%5 == 3 {
			j++
		}
		s := generate(seed, preseed, 1-c, j, client)
		s.name = name + "-repeat"
		return s
	}
	if (k/5)%2 == 0 {
		return specsSubmission(client, name+"-convolve", encode(convolveSpec(r, name+"-convolve", 1+r.IntN(4), 4)))
	}
	return gridSubmission(client, name+"-convolve-grid", scenario.Grid{Base: convolveSpec(r, name+"-convolve-grid", 1, 4),
		Axes: []scenario.Axis{{Path: "machine.cpus", Values: []json.RawMessage{json.RawMessage("1"), json.RawMessage("2")}}}})
}

// anchorSubmission carries a Table 2 EP cell and a Figure 1 Convolve
// cell whose simulated seconds results/golden pins.
func anchorSubmission(client string) submission {
	ep := table2Anchor()
	conv := encode(scenario.Spec{Name: "anchor-figure1-unfriendly-cpus4-400ms", Workload: "convolve",
		Machine: scenario.Machine{CPUs: 4}, SMM: scenario.SMMPlan{IntervalMS: 400},
		Runs: 1, Seed: 1, Params: scenario.Params{Cache: "unfriendly"}})
	s := specsSubmission(client, "anchors", ep.doc, conv)
	s.anchors = map[int]*anchor{0: ep.anchor, 1: fig1Anchor("CacheUnfriendly", 4, 400)}
	return s
}

func specsSubmission(client, name string, specs ...[]byte) submission {
	raw := make([]json.RawMessage, len(specs))
	for i, s := range specs {
		raw[i] = s
	}
	body, err := json.Marshal(serve.SubmitRequest{Client: client, Specs: raw})
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding a submission: %v", err)) // generated bodies are plain data
	}
	return submission{name: name, body: body, specs: specs}
}

func gridSubmission(client, name string, g scenario.Grid) submission {
	body, err := json.Marshal(serve.SubmitRequest{Client: client, Grid: &g})
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding a submission: %v", err)) // generated bodies are plain data
	}
	return submission{name: name, body: body}
}

// serviceBench drives an in-process sweep server over loopback HTTP.
type serviceBench struct {
	c       config
	preseed [][]byte
	bus     *obs.Bus // traced phase: the server's tracer
}

// liveServer is one set-up server and its store.
type liveServer struct {
	dir    string // the store directory
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
}

func (l *liveServer) close() {
	l.client.CloseIdleConnections()
	l.hs.Close()
	l.srv.Close()
}

func runService(c config) (outcome, map[string]metric, error) {
	if c.rssPass {
		return outcome{}, nil, fmt.Errorf("--rss-pass applies to the simulation workloads only")
	}
	b := &serviceBench{c: c, preseed: preseedSpecs(c.seed)}
	docs := append([][]byte(nil), b.preseed...)
	for cl := 0; cl < serviceClients; cl++ {
		for k := 0; k < 500; k++ {
			docs = append(docs, submissionAt(c.seed, b.preseed, cl, k).body)
		}
	}
	fmt.Fprintf(c.log, "inputs: seed=%d preseed=%d sha256=%s (pool and first 500 submissions per client)\n",
		c.seed, len(b.preseed), inputDigest(docs))
	if c.spans == nil {
		return b.endToEnd()
	}
	return b.perLayer()
}

// setup pre-seeds a fresh store through the CLI's durable sweep path,
// replays it once with durable.Open (timed on its own), then starts
// serve.New on it behind a loopback listener and waits for /readyz.
func (b *serviceBench) setup() (*liveServer, error) {
	tr := b.c.spans
	root := tr.begin(-1, "setup", -1)
	defer tr.end(root)
	dir, err := os.MkdirTemp(b.c.work, "store-")
	if err != nil {
		return nil, err
	}
	h := tr.begin(-1, "durable.preseed", root)
	specs := make([]scenario.Spec, len(b.preseed))
	for i, d := range b.preseed {
		if specs[i], err = scenario.Parse(d); err != nil {
			return nil, err
		}
	}
	st, err := durable.Open(dir)
	if err != nil {
		return nil, err
	}
	_, errs, _ := durable.RunSpecs(context.Background(), specs, durable.Options{Store: st, Resume: true, Workers: serviceWorkers})
	if err := st.Close(); err != nil {
		return nil, err
	}
	tr.end(h)
	for _, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("pre-seed: %w", e)
		}
	}

	h = tr.begin(-1, "durable.open", root)
	st, err = durable.Open(dir)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	if st.Len() != preseedCells {
		st.Close()
		return nil, fmt.Errorf("pre-seeded store replays %d cells, want %d", st.Len(), preseedCells)
	}
	if err := st.Close(); err != nil {
		return nil, err
	}

	h = tr.begin(-1, "serve.new", root)
	cfg := serve.Config{StoreDir: dir, Workers: serviceWorkers}
	if b.bus != nil {
		cfg.Tracer = b.bus
	}
	srv := serve.New(cfg)
	tr.end(h)
	if err := srv.Ready(); err != nil {
		srv.Close()
		return nil, err
	}
	l := &liveServer{
		dir: dir, srv: srv, hs: httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients}},
	}
	resp, err := l.client.Get(l.hs.URL + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: %s", resp.Status)
		}
	}
	if err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func (b *serviceBench) endToEnd() (outcome, map[string]metric, error) {
	var setups []time.Duration
	var live *liveServer
	for k := 0; k < setupRepeats; k++ {
		if live != nil {
			live.close()
		}
		t0 := time.Now()
		l, err := b.setup()
		if err != nil {
			return outcome{}, nil, err
		}
		setups = append(setups, time.Since(t0))
		live = l
	}
	o, done := b.load(live, b.c.window, nil)
	t0 := time.Now()
	seen := b.verify(live, done, &o)
	live.close()
	b.verifyStore(live.dir, seen, &o)
	fmt.Fprintf(b.c.log, "verified %d submissions, %d keys in %.1fs\n", len(done), len(seen), time.Since(t0).Seconds())
	return o, endToEnd(b.c, "submission", o, setups), nil
}

// perLayer loads a server untraced for a third of the window, then a
// fresh one with the same submissions traced, and reports the per-layer
// metrics.
func (b *serviceBench) perLayer() (outcome, map[string]metric, error) {
	spans := b.c.spans
	b.c.spans = nil
	live, err := b.setup()
	if err != nil {
		return outcome{}, nil, err
	}
	plain, done := b.load(live, b.c.window/3, nil)
	live.close()
	counts := make([]int, serviceClients)
	for _, d := range done {
		counts[d.client]++
	}

	b.c.spans = spans
	b.bus = obs.NewBus()
	if live, err = b.setup(); err != nil {
		return outcome{}, nil, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		live.close()
		return outcome{}, nil, fmt.Errorf("cpu profile: %w", err)
	}
	traced, done := b.load(live, 0, counts)
	pprof.StopCPUProfile()
	seen := b.verify(live, done, &traced)
	stats := live.srv.Stats()
	snap := live.srv.MetricsSnapshot()
	live.close()
	b.verifyStore(live.dir, seen, &traced)

	m := zeroLayerMetrics()
	tr := b.c.spans
	var cold, cached []float64
	for _, d := range done {
		if d.ok && d.cold {
			cold = append(cold, d.ms)
		} else if d.ok {
			cached = append(cached, d.ms)
		}
	}
	m["serve.cold_submit_ms_p50"] = metric{median(cold), "ms"}
	m["serve.cached_submit_ms_p50"] = metric{median(cached), "ms"}
	m["durable.open_ms"] = metric{median(tr.durations("durable.open")), "ms"}
	m["serve.queue_wait_ms_p50"] = metric{histP50(snap, "serve_queue_wait_ms"), "ms"}
	m["serve.cell_ms_p50"] = metric{histP50(snap, "serve_cell_latency_ms"), "ms"}
	if stats.Cells > 0 {
		m["serve.dedup_frac"] = metric{float64(stats.Cached+stats.Coalesced) / float64(stats.Cells), "ratio"}
	}
	m["serve.rejected"] = metric{float64(stats.Rejected), "count"}
	counters := map[string]int64{}
	sumCounters(counters, b.bus.MetricsSnapshot())
	addCounterMetrics(m, counters, stats.Executed)
	if err := addCPUShares(m, prof.Bytes()); err != nil {
		return outcome{}, nil, err
	}
	m["bench.trace_overhead_frac"] = metric{traced.wall.Seconds()/plain.wall.Seconds() - 1, "ratio"}
	m["fail_frac"] = failFrac(traced)
	fmt.Fprintf(b.c.log, "traced: %d submissions (%d cold, %d cached); untraced %.3fs, traced %.3fs; server %+v\n",
		traced.attempted, len(cold), len(cached), plain.wall.Seconds(), traced.wall.Seconds(), stats)
	return traced, m, nil
}

// histP50 estimates a registry histogram's median by interpolating
// within its log2 bucket.
func histP50(s obs.Snapshot, name string) float64 {
	for _, h := range s.Histograms {
		if h.Name != name || h.N == 0 {
			continue
		}
		half := float64(h.N) / 2
		var seen float64
		for i, c := range h.Counts {
			if seen+float64(c) < half {
				seen += float64(c)
				continue
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			hi := h.Max
			if i < len(h.Bounds) {
				hi = h.Bounds[i]
			}
			return lo + (hi-lo)*(half-seen)/float64(c)
		}
	}
	return 0
}

// done is one finished submission, kept for verification after the
// measured window.
type done struct {
	client int
	sub    submission
	id     string
	ok     bool
	cold   bool // at least one cell executed (vs replayed or coalesced)
	ms     float64
	end    time.Duration // completion, from the start of the load
}

// load runs the closed-loop clients until window has elapsed, or, when
// counts is set, for exactly counts[c] submissions each.
func (b *serviceBench) load(l *liveServer, window time.Duration, counts []int) (outcome, []done) {
	var (
		mu  sync.Mutex
		o   outcome
		all []done
		wg  sync.WaitGroup
		op  int64
	)
	t0 := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				if counts != nil && k >= counts[c] || counts == nil && time.Since(t0) >= window {
					return
				}
				sub := submissionAt(b.c.seed, b.preseed, c, k)
				mu.Lock()
				op++
				id := op
				mu.Unlock()
				d := b.submit(l, c, sub, id)
				d.end = time.Since(t0)
				mu.Lock()
				o.record(time.Duration(d.ms*float64(time.Millisecond)), !d.ok)
				all = append(all, d)
				if len(all) == rssAtSubmissions {
					o.rssMiB = peakRSSMiB()
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	o.wall = time.Since(t0)
	// Twelve throughput samples over equal runs of consecutive
	// completions.
	if counts == nil {
		var ends []time.Duration
		for _, d := range all {
			if d.ok {
				ends = append(ends, d.end)
			}
		}
		sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
		if chunk := len(ends) / 12; chunk > 0 {
			prev := time.Duration(0)
			for i := chunk - 1; i < len(ends); i += chunk {
				o.rates = append(o.rates, float64(chunk)/(ends[i]-prev).Seconds())
				prev = ends[i]
			}
		}
	}
	return o, all
}

// submit POSTs one submission and follows its SSE stream to the
// terminal job event.
func (b *serviceBench) submit(l *liveServer, c int, sub submission, op int64) done {
	tr := b.c.spans
	d := done{client: c, sub: sub}
	start := time.Now()
	root := tr.begin(op, "submission", -1)
	defer tr.end(root)
	h := tr.begin(op, "serve.post", root)
	resp, err := l.client.Post(l.hs.URL+"/v1/sweeps", "application/json", bytes.NewReader(sub.body))
	if err != nil {
		tr.end(h)
		fmt.Fprintf(b.c.log, "submission %s: %v\n", sub.name, err)
		return d
	}
	var acc serve.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	tr.end(h)
	if resp.StatusCode != http.StatusAccepted || err != nil {
		fmt.Fprintf(b.c.log, "submission %s: %s %v\n", sub.name, resp.Status, err)
		return d
	}
	d.id = acc.ID

	h = tr.begin(op, "serve.events", root)
	ev, cold, err := follow(l, acc.EventsURL)
	tr.end(h)
	d.ms = float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil || ev.State != "done" {
		fmt.Fprintf(b.c.log, "submission %s: job %s %v\n", sub.name, ev.State, err)
		return d
	}
	d.ok, d.cold = true, cold
	return d
}

// follow reads a job's SSE stream up to its terminal event, reporting
// whether any cell executed.
func follow(l *liveServer, url string) (serve.Event, bool, error) {
	resp, err := l.client.Get(l.hs.URL + url)
	if err != nil {
		return serve.Event{}, false, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	cold := false
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return serve.Event{}, cold, err
		}
		if ev.Kind == "cell" && ev.Via == "executed" {
			cold = true
		}
		if ev.Kind == "job" && (ev.State == "done" || ev.State == "failed") {
			return ev, cold, nil
		}
	}
	if err := sc.Err(); err != nil {
		return serve.Event{}, cold, err
	}
	return serve.Event{}, cold, io.ErrUnexpectedEOF
}

// Samples checked after the window: submissions re-run in-process and
// keys re-fetched over HTTP by content address.
const (
	serviceRecheck = 4
	serviceRefetch = 32
)

// verify checks every finished submission outside the measured window.
// Each spec's measurement in its job status must equal every other
// result for that key, the committed digest (pre-seeded pool and
// anchors, default seed) and any golden anchor. A seeded sample of keys
// is re-fetched from /v1/results and a seeded sample of single-spec
// submissions is re-run in-process; both must match byte for byte. It
// returns each key's digest for verifyStore.
func (b *serviceBench) verify(l *liveServer, all []done, o *outcome) map[string]string {
	tr := b.c.spans
	h := tr.begin(-1, "check", -1)
	defer tr.end(h)
	seen := map[string]string{}
	fail := func(what string, err error) {
		fmt.Fprintf(b.c.log, "verify %s: %v\n", what, err)
		o.markWrong()
	}
	r := newRand(b.c.seed, 8)
	var singles []submission
	for _, d := range all {
		if !d.ok {
			continue
		}
		f := tr.begin(-1, "serve.fetch_status", h)
		err := b.verifyStatus(l, d, seen)
		tr.end(f)
		if err != nil {
			fail(d.sub.name, err)
		}
		if len(d.sub.specs) == 1 {
			singles = append(singles, d.sub)
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for n := 0; n < serviceRefetch && len(keys) > 0; n++ {
		key := keys[r.IntN(len(keys))]
		f := tr.begin(-1, "serve.fetch_result", h)
		err := refetch(l, key, seen[key])
		tr.end(f)
		if err != nil {
			fail(key, err)
		}
	}
	for n := 0; n < serviceRecheck && len(singles) > 0; n++ {
		sub := singles[r.IntN(len(singles))]
		if err := rerun(sub.specs[0], seen); err != nil {
			fail(sub.name, err)
		}
	}
	return seen
}

// verifyStatus checks one submission's job status document.
func (b *serviceBench) verifyStatus(l *liveServer, d done, seen map[string]string) error {
	var st struct {
		State string `json:"state"`
		Specs []struct {
			Name        string          `json:"name"`
			Key         string          `json:"key"`
			Measurement json.RawMessage `json:"measurement"`
		} `json:"specs"`
	}
	if err := getJSON(l, "/v1/sweeps/"+d.id, &st); err != nil {
		return err
	}
	if st.State != "done" {
		return fmt.Errorf("wrong output: job state %q", st.State)
	}
	for i, s := range st.Specs {
		dg, err := digest(s.Measurement)
		if err != nil {
			return err
		}
		if prev, ok := seen[s.Key]; ok && prev != dg {
			return fmt.Errorf("wrong output: %s digest %s, earlier %s", s.Key, dg, prev)
		}
		seen[s.Key] = dg
		if want, ok := b.c.expected[s.Name]; ok && want != dg {
			return fmt.Errorf("wrong output: %s digest %s, committed %s", s.Name, dg, want)
		}
		if a := d.sub.anchors[i]; a != nil {
			var m runner.Measurement
			if err := json.Unmarshal(s.Measurement, &m); err != nil {
				return err
			}
			want, err := a.want(b.c.goldenDir())
			if err != nil {
				return err
			}
			if got, ok := value(m); !ok || got != want {
				return fmt.Errorf("wrong output: anchor %s/%s = %v, golden %v", a.file, a.what, got, want)
			}
		}
	}
	return nil
}

// refetch reads a key's stored result over HTTP and compares it with
// the digest its job status gave.
func refetch(l *liveServer, key, want string) error {
	var res struct {
		Cells []struct {
			Measurement json.RawMessage `json:"measurement"`
		} `json:"cells"`
	}
	if err := getJSON(l, "/v1/results/"+key, &res); err != nil {
		return err
	}
	if len(res.Cells) != 1 {
		return fmt.Errorf("wrong output: %d stored cells, want 1", len(res.Cells))
	}
	if d, err := digest(res.Cells[0].Measurement); err != nil || d != want {
		return fmt.Errorf("wrong output: stored digest %s, status %s (%v)", d, want, err)
	}
	return nil
}

// rerun executes a spec in-process and compares its output with the
// server's result for the same key.
func rerun(doc []byte, seen map[string]string) error {
	sp, err := scenario.Parse(doc)
	if err != nil {
		return err
	}
	key, err := durable.Key(sp)
	if err != nil {
		return err
	}
	d, err := runDigest(doc)
	if err != nil {
		return err
	}
	if seen[key] != d {
		return fmt.Errorf("wrong output: in-process re-run of %s gives %s, server %s", key, d, seen[key])
	}
	return nil
}

// verifyStore re-reads every key's result straight from the closed
// server's store by content address (journal replay, checksum-verified
// object read) and compares it with the job status digest.
func (b *serviceBench) verifyStore(dir string, seen map[string]string, o *outcome) {
	st, err := durable.Open(dir)
	if err != nil {
		fmt.Fprintf(b.c.log, "verify store: %v\n", err)
		o.markWrong()
		return
	}
	defer st.Close()
	for key, want := range seen {
		data, err := st.Get(key, 0)
		var d string
		if err == nil {
			d, err = digest(data)
		}
		if err != nil || d != want {
			fmt.Fprintf(b.c.log, "verify store %s: digest %s, status %s (%v)\n", key, d, want, err)
			o.markWrong()
		}
	}
}

func getJSON(l *liveServer, path string, v any) error {
	resp, err := l.client.Get(l.hs.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
