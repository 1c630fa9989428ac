package serve

import (
	"fmt"
	"sync"
	"time"

	"smistudy/internal/durable"
	"smistudy/internal/runner"
	"smistudy/internal/scenario"
)

// Event is one entry in a job's progress log, delivered over the SSE
// stream and retained so late subscribers replay the full history.
type Event struct {
	Seq   int    `json:"seq"`
	Kind  string `json:"kind"`  // "job" or "cell"
	State string `json:"state"` // job: running|done|failed; cell: done|failed
	// Cell coordinates, for Kind == "cell".
	Cell int    `json:"cell,omitempty"`
	Key  string `json:"key,omitempty"`
	Run  int    `json:"run,omitempty"`
	// Via records how the cell resolved: executed, cached or coalesced.
	Via string `json:"via,omitempty"`
	// MS is the cell's wall-clock execution latency (owner cell only).
	MS    float64 `json:"ms,omitempty"`
	Error string  `json:"error,omitempty"`
	// Done/Total snapshot job progress at this event.
	Done  int `json:"done"`
	Total int `json:"total"`
}

// terminal reports whether the event closes the stream.
func (e Event) terminal() bool {
	return e.Kind == "job" && (e.State == "done" || e.State == "failed")
}

// jobCell is one cell's slot in a job.
type jobCell struct {
	specIdx int
	key     string
	run     int
	done    bool
	via     string
	err     string
	m       runner.Measurement
}

// specResult is a finished spec's outcome within a job.
type specResult struct {
	state string // done | failed
	err   string
	data  []byte // canonical measurement JSON when done
}

// job is one accepted submission: its specs, their planned cells, the
// progress log and the SSE subscribers. All mutable state is guarded by
// mu; completion callbacks arrive from scheduler workers.
type job struct {
	id      string
	client  string
	created time.Time

	specs []scenario.Spec
	plans []durable.SpecPlan
	first []int // plans[i].Cells start at cells[first[i]]

	mu          sync.Mutex
	cells       []jobCell
	specPending []int
	results     []specResult
	pending     int
	failed      bool
	state       string // running | done | failed
	wall        time.Duration
	events      []Event
	subs        map[chan Event]struct{}

	// onDone is called exactly once, outside mu, when the job reaches a
	// terminal state (the server's jobs-done accounting).
	onDone func(failed bool)
}

func newJob(id, client string, specs []scenario.Spec, plans []durable.SpecPlan) *job {
	j := &job{
		id:      id,
		client:  client,
		created: time.Now(),
		specs:   specs,
		plans:   plans,
		first:   make([]int, len(plans)),
		state:   "running",
		subs:    map[chan Event]struct{}{},
		results: make([]specResult, len(plans)),
	}
	for i, p := range plans {
		j.first[i] = len(j.cells)
		for run := range p.Cells {
			j.cells = append(j.cells, jobCell{specIdx: i, key: p.Key, run: run})
		}
		j.specPending = append(j.specPending, len(p.Cells))
	}
	j.pending = len(j.cells)
	return j
}

// refs builds the cell references and durable requests for scheduling,
// in cell order.
func (j *job) refs() ([]durable.CellRequest, []cellRef) {
	reqs := make([]durable.CellRequest, len(j.cells))
	refs := make([]cellRef, len(j.cells))
	for i, c := range j.cells {
		p := j.plans[c.specIdx]
		reqs[i] = durable.CellRequest{
			Spec:   p.Cells[c.run],
			Key:    p.Key,
			Run:    c.run,
			Global: int32(i),
		}
		refs[i] = cellRef{j: j, cell: i}
	}
	return reqs, refs
}

// start emits the initial job event. Called once after admission.
func (j *job) start() {
	j.mu.Lock()
	j.emit(Event{Kind: "job", State: "running"})
	j.mu.Unlock()
}

// cellDone lands one cell's outcome (via: executed | cached |
// coalesced), advances spec and job completion, and broadcasts events.
func (j *job) cellDone(cell int, res durable.CellResult, via string, lat time.Duration) {
	var done func(bool)
	var wasFailed bool
	j.mu.Lock()
	c := &j.cells[cell]
	if c.done {
		j.mu.Unlock()
		return
	}
	c.done = true
	c.via = via
	c.m = res.M
	state := "done"
	if res.Err != nil {
		c.err = res.Err.Error()
		state = "failed"
	}
	j.pending--
	ev := Event{
		Kind: "cell", State: state, Cell: cell, Key: c.key, Run: c.run,
		Via: via, Error: c.err,
	}
	if via != "coalesced" {
		ev.MS = float64(lat) / float64(time.Millisecond)
	}
	j.emit(ev)

	si := c.specIdx
	j.specPending[si]--
	if j.specPending[si] == 0 {
		j.finishSpec(si)
	}
	if j.pending == 0 {
		j.state = "done"
		if j.failed {
			j.state = "failed"
		}
		j.wall = time.Since(j.created)
		j.emit(Event{Kind: "job", State: j.state})
		done, wasFailed = j.onDone, j.failed
		j.onDone = nil
	}
	j.mu.Unlock()
	if done != nil {
		done(wasFailed)
	}
}

// finishSpec assembles spec si's result from its completed cells.
// Called with mu held.
func (j *job) finishSpec(si int) {
	p := j.plans[si]
	lo := j.first[si]
	cells := j.cells[lo : lo+len(p.Cells)]
	for _, c := range cells {
		if c.err != "" {
			j.results[si] = specResult{state: "failed", err: c.err}
			j.failed = true
			return
		}
	}
	m := cells[0].m
	if p.Merge != nil || len(cells) > 1 {
		parts := make([]runner.Measurement, len(cells))
		for i, c := range cells {
			parts[i] = c.m
		}
		if p.Merge == nil {
			j.results[si] = specResult{state: "failed", err: "serve: multi-cell spec without a merge hook"}
			j.failed = true
			return
		}
		merged, err := p.Merge(j.specs[si], parts)
		if err != nil {
			j.results[si] = specResult{state: "failed", err: err.Error()}
			j.failed = true
			return
		}
		m = merged
	}
	data, err := m.JSON()
	if err != nil {
		j.results[si] = specResult{state: "failed", err: err.Error()}
		j.failed = true
		return
	}
	j.results[si] = specResult{state: "done", data: data}
}

// emit appends an event to the log and delivers it to every subscriber.
// Called with mu held. Subscriber channels are sized for the job's full
// event volume, so sends never block.
func (j *job) emit(ev Event) {
	ev.Seq = len(j.events)
	ev.Done = len(j.cells) - j.pending
	ev.Total = len(j.cells)
	j.events = append(j.events, ev)
	for ch := range j.subs {
		ch <- ev
	}
}

// subscribe returns the event history so far and a channel for what
// follows. The channel has capacity for every event the job can still
// emit; cancel detaches it.
func (j *job) subscribe() (history []Event, ch chan Event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	history = append([]Event(nil), j.events...)
	ch = make(chan Event, len(j.cells)+4)
	j.subs[ch] = struct{}{}
	return history, ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// CellCounts is a job's progress breakdown; Total = Executed + Cached +
// Coalesced + Failed once the job finishes.
type CellCounts struct {
	Total     int `json:"total"`
	Done      int `json:"done"`
	Executed  int `json:"executed"`
	Cached    int `json:"cached"`
	Coalesced int `json:"coalesced"`
	Failed    int `json:"failed"`
}

// SpecStatus is one spec's slice of a job status document.
type SpecStatus struct {
	Name  string `json:"name,omitempty"`
	Key   string `json:"key"`
	Cells int    `json:"cells"`
	State string `json:"state"` // running | done | failed
	Error string `json:"error,omitempty"`
	// Measurement is the spec's canonical measurement JSON once done —
	// byte-identical to what any other path measuring this spec yields.
	Measurement jsonRaw `json:"measurement,omitempty"`
}

// jsonRaw avoids importing encoding/json here just for RawMessage.
type jsonRaw []byte

// MarshalJSON implements json.Marshaler.
func (r jsonRaw) MarshalJSON() ([]byte, error) {
	if len(r) == 0 {
		return []byte("null"), nil
	}
	return r, nil
}

// UnmarshalJSON implements json.Unmarshaler (clients decoding a status
// document keep the measurement bytes verbatim).
func (r *jsonRaw) UnmarshalJSON(data []byte) error {
	*r = append((*r)[:0], data...)
	return nil
}

// JobStatus is the GET /v1/sweeps/{id} document.
type JobStatus struct {
	ID     string       `json:"id"`
	Client string       `json:"client"`
	State  string       `json:"state"`
	Cells  CellCounts   `json:"cells"`
	Specs  []SpecStatus `json:"specs"`
	WallMS float64      `json:"wall_ms,omitempty"`
}

// status snapshots the job.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.id, Client: j.client, State: j.state}
	st.Cells.Total = len(j.cells)
	for _, c := range j.cells {
		if !c.done {
			continue
		}
		st.Cells.Done++
		if c.err != "" {
			st.Cells.Failed++
			continue
		}
		switch c.via {
		case "executed":
			st.Cells.Executed++
		case "cached":
			st.Cells.Cached++
		case "coalesced":
			st.Cells.Coalesced++
		}
	}
	for i, p := range j.plans {
		ss := SpecStatus{
			Name:  j.specs[i].Name,
			Key:   p.Key,
			Cells: len(p.Cells),
			State: "running",
		}
		if r := j.results[i]; r.state != "" {
			ss.State = r.state
			ss.Error = r.err
			ss.Measurement = r.data
		}
		st.Specs = append(st.Specs, ss)
	}
	if j.state != "running" {
		st.WallMS = float64(j.wall) / float64(time.Millisecond)
	}
	return st
}

// jobID formats the server's monotonic job counter.
func jobID(n int64) string { return fmt.Sprintf("job-%06d", n) }
