package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"smistudy/internal/sim"
)

// This file is the stable read-side of the observability bus: the
// Chrome/Perfetto trace a run streams to disk can be loaded back into
// typed records, with the (run, node, track) coordinates the sink
// encoded recovered exactly. cmd/smireport builds its attribution trees
// and flame renderings on this surface, so the track layout below is a
// compatibility contract, not an implementation detail.

// Exported per-node track ids (the ChromeSink "tid" layout). CPU tracks
// occupy [TidCPU0, TidCPU0+cpus), rank tracks [TidRank0, TidNet).
const (
	TidCPU0      int32 = 1    // scheduling instants for logical CPU c land on TidCPU0+c
	TidRank0     int32 = 100  // MPI traffic for rank r lands on TidRank0+r
	TidNet       int32 = 900  // fabric deliveries, drops, delays
	TidFault     int32 = 901  // fault activations
	TidProf      int32 = 902  // profiler sample decisions
	TidTransport int32 = 903  // reliable-transport retransmissions
	TidTasks     int32 = 998  // kernel task spawn/exit
	TidSMM       int32 = 1000 // ground-truth SMM residency spans
	TidSteal0    int32 = 1100 // core-scoped steal spans for CPU c land on TidSteal0+c

	// Cluster-process track (node = -1): the sweep-cell timeline.
	TidCells int32 = 1
)

// TrackKind classifies a (node, tid) timeline.
type TrackKind uint8

// Track kinds, in the order a flame rendering stacks them.
const (
	TrackUnknown   TrackKind = iota
	TrackCells               // cluster: sweep-cell spans
	TrackCPU                 // per-node: one logical CPU's scheduling
	TrackRank                // per-node: one MPI rank's traffic
	TrackNet                 // per-node: fabric activity
	TrackFault               // per-node: fault activations
	TrackProf                // per-node: profiler decisions
	TrackTransport           // per-node: retransmissions
	TrackTasks               // per-node: kernel task lifecycle
	TrackSMM                 // per-node: SMM residency ground truth
	TrackSteal               // per-node: one CPU's core-scoped steal ground truth
)

// String implements fmt.Stringer.
func (k TrackKind) String() string {
	switch k {
	case TrackCells:
		return "cells"
	case TrackCPU:
		return "cpu"
	case TrackRank:
		return "rank"
	case TrackNet:
		return "net"
	case TrackFault:
		return "fault"
	case TrackProf:
		return "prof"
	case TrackTransport:
		return "transport"
	case TrackTasks:
		return "tasks"
	case TrackSMM:
		return "smm"
	case TrackSteal:
		return "steal"
	default:
		return "unknown"
	}
}

// TrackOf classifies a timeline and recovers its index (the CPU number
// for TrackCPU, the rank id for TrackRank, zero otherwise). node is the
// decoded SplitPid node; cluster processes use node -1.
func TrackOf(node, tid int32) (TrackKind, int) {
	if node < 0 {
		if tid == TidCells {
			return TrackCells, 0
		}
		return TrackUnknown, 0
	}
	switch {
	case tid >= TidCPU0 && tid < TidRank0:
		return TrackCPU, int(tid - TidCPU0)
	case tid >= TidRank0 && tid < TidNet:
		return TrackRank, int(tid - TidRank0)
	case tid == TidNet:
		return TrackNet, 0
	case tid == TidFault:
		return TrackFault, 0
	case tid == TidProf:
		return TrackProf, 0
	case tid == TidTransport:
		return TrackTransport, 0
	case tid == TidTasks:
		return TrackTasks, 0
	case tid == TidSMM:
		return TrackSMM, 0
	case tid >= TidSteal0 && tid < TidSteal0+99:
		return TrackSteal, int(tid - TidSteal0)
	}
	return TrackUnknown, 0
}

// Span is one interval or instant recovered from a trace: "X" complete
// spans keep their duration, matched "B"/"E" pairs become spans, and
// "i" instants carry Dur 0 with Instant set.
type Span struct {
	Run     int32
	Node    int32 // -1 for cluster-process events
	Tid     int32
	Kind    TrackKind
	Index   int // CPU number or rank id for CPU/rank tracks
	Name    string
	Cat     string
	Start   sim.Time
	Dur     sim.Time
	A, B    int64
	Instant bool
	// Seq is the stream position of the record that produced the span
	// (for a begin/end pair, its end edge). Stream order is emission
	// order, so Seq orders same-instant records across tracks.
	Seq int64
}

// End reports the span's end time.
func (s Span) End() sim.Time { return s.Start + s.Dur }

// Trace is a fully parsed trace stream.
type Trace struct {
	// Spans holds every recovered record ordered by (Run, Node, Tid,
	// Start, Seq): records that tie on Start keep emission order, so a
	// zero-length run reads back as run then preempt.
	Spans []Span
	// ProcNames maps a (run, node) process to its display name.
	ProcNames map[int64]string
	// ThreadNames maps a (pid, tid) timeline to its display name.
	ThreadNames map[int64]map[int32]string
	// Records counts trace records parsed, metadata included — the
	// number a manifest's SinkStats.TraceEvents should match.
	Records int64
	// Truncated is set when the stream ended mid-document (a killed or
	// write-errored producer): everything parsed up to the tear is
	// retained, and consumers must treat the trace as lossy.
	Truncated bool
	// Unbalanced counts "B" edges that never saw their "E" (or E
	// without B): a structural anomaly attribution must surface.
	Unbalanced int
}

// RunIDs reports the distinct run indices in the trace, ascending.
func (t *Trace) RunIDs() []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, s := range t.Spans {
		if !seen[s.Run] {
			seen[s.Run] = true
			out = append(out, s.Run)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Select returns the spans of one run matching the kind filter
// (TrackUnknown selects every kind), preserving order.
func (t *Trace) Select(run int32, kind TrackKind) []Span {
	var out []Span
	for _, s := range t.Spans {
		if s.Run == run && (kind == TrackUnknown || s.Kind == kind) {
			out = append(out, s)
		}
	}
	return out
}

// rawEvent is one Chrome trace-event JSON object.
type rawEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int64   `json:"pid"`
	Tid  int32   `json:"tid"`
	Args struct {
		Name string `json:"name"`
		A    int64  `json:"a"`
		B    int64  `json:"b"`
	} `json:"args"`
}

// fromUS converts Chrome's microsecond timestamps back to sim.Time,
// rounding to the sink's millisecond-of-a-microsecond precision.
func fromUS(us float64) sim.Time {
	return sim.Time(math.Round(us * float64(sim.Microsecond)))
}

// ReadTrace parses a Chrome trace-event stream written by ChromeSink
// (any {"traceEvents":[...]} document works). Parsing is lenient about
// torn tails: a stream cut mid-record — the shape a killed producer
// leaves — returns everything before the tear with Truncated set
// instead of failing, because a partial timeline is exactly what a
// post-mortem needs. Any other malformation is an error.
func ReadTrace(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	tr := &Trace{
		ProcNames:   map[int64]string{},
		ThreadNames: map[int64]map[int32]string{},
	}
	// Expect `{ "traceEvents" : [`.
	for _, want := range []json.Delim{'{'} {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("obs: trace: %w", err)
		}
		if d, ok := tok.(json.Delim); !ok || d != want {
			return nil, fmt.Errorf("obs: trace: unexpected token %v", tok)
		}
	}
	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("obs: trace: %w", err)
	}
	if key, ok := tok.(string); !ok || key != "traceEvents" {
		return nil, fmt.Errorf("obs: trace: expected traceEvents, got %v", tok)
	}
	if tok, err = dec.Token(); err != nil {
		return nil, fmt.Errorf("obs: trace: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return nil, fmt.Errorf("obs: trace: expected event array, got %v", tok)
	}

	// open tracks per-(pid,tid) unmatched "B" edges, a stack per track
	// (collectives nest).
	type trackID struct {
		pid int64
		tid int32
	}
	open := map[trackID][]rawEvent{}
	for dec.More() {
		var ev rawEvent
		if err := dec.Decode(&ev); err != nil {
			// A tear inside the array: keep what we have.
			tr.Truncated = true
			break
		}
		tr.Records++
		run, node := SplitPid(ev.Pid)
		kind, idx := TrackOf(node, ev.Tid)
		switch ev.Ph {
		case "M":
			switch ev.Name {
			case "process_name":
				tr.ProcNames[ev.Pid] = ev.Args.Name
			case "thread_name":
				m := tr.ThreadNames[ev.Pid]
				if m == nil {
					m = map[int32]string{}
					tr.ThreadNames[ev.Pid] = m
				}
				m[ev.Tid] = ev.Args.Name
			}
		case "X":
			tr.Spans = append(tr.Spans, Span{
				Run: run, Node: node, Tid: ev.Tid, Kind: kind, Index: idx,
				Name: ev.Name, Cat: ev.Cat,
				Start: fromUS(ev.Ts), Dur: fromUS(ev.Dur),
				A: ev.Args.A, B: ev.Args.B,
				Seq: tr.Records,
			})
		case "i", "I":
			tr.Spans = append(tr.Spans, Span{
				Run: run, Node: node, Tid: ev.Tid, Kind: kind, Index: idx,
				Name: ev.Name, Cat: ev.Cat,
				Start: fromUS(ev.Ts),
				A:     ev.Args.A, B: ev.Args.B, Instant: true,
				Seq: tr.Records,
			})
		case "B":
			id := trackID{ev.Pid, ev.Tid}
			open[id] = append(open[id], ev)
		case "E":
			id := trackID{ev.Pid, ev.Tid}
			stack := open[id]
			if len(stack) == 0 {
				tr.Unbalanced++
				continue
			}
			b := stack[len(stack)-1]
			open[id] = stack[:len(stack)-1]
			tr.Spans = append(tr.Spans, Span{
				Run: run, Node: node, Tid: ev.Tid, Kind: kind, Index: idx,
				Name: b.Name, Cat: b.Cat,
				Start: fromUS(b.Ts), Dur: fromUS(ev.Ts) - fromUS(b.Ts),
				A: b.Args.A, B: b.Args.B,
				Seq: tr.Records,
			})
		}
	}
	if !tr.Truncated {
		// Consume `] }`; a tear here still means a complete event list.
		if _, err := dec.Token(); err != nil {
			tr.Truncated = true
		} else if _, err := dec.Token(); err != nil {
			tr.Truncated = true
		}
	}
	for _, stack := range open {
		tr.Unbalanced += len(stack)
	}
	sort.SliceStable(tr.Spans, func(i, j int) bool {
		a, b := tr.Spans[i], tr.Spans[j]
		if a.Run != b.Run {
			return a.Run < b.Run
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		return a.Start < b.Start
	})
	return tr, nil
}
