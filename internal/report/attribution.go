// Package report turns run artifacts — Chrome/Perfetto traces from the
// obs bus, metrics snapshots, run manifests, durable result stores —
// into self-contained HTML and JSON reports: a time-attribution tree
// per run/node/CPU (the simulated analogue of a top-down TMA
// breakdown), a flame/icicle rendering of the trace, and a cross-run
// similarity analysis that flags which scenario dimensions actually
// change behavior.
//
// The attribution tree answers the paper's core question — where did
// the wall time go? — from bus events alone: every logical CPU's
// timeline is partitioned exactly into compute, SMM-stolen, per-family
// stolen time (one <family>-stolen category per perturbation source,
// e.g. osjitter-stolen), communication-wait, fault-retransmit wait and
// idle, so the categories sum to the wall time by construction and any
// residue is a processing bug the invariant checker surfaces.
package report

import (
	"fmt"
	"sort"

	"smistudy/internal/obs"
	"smistudy/internal/sim"
)

// Attribution categories. They partition a CPU's timeline exactly.
// Per-CPU perturbation sources additionally contribute one
// "<family>-stolen" category each (e.g. "osjitter-stolen").
const (
	CatCompute    = "compute"          // on-CPU, outside SMM
	CatSMMStolen  = "smm-stolen"       // stalled in System Management Mode
	CatCommWait   = "comm-wait"        // off-CPU on a node with MPI ranks
	CatRetransmit = "fault-retransmit" // off-CPU while the transport retransmitted
	CatIdle       = "idle"             // off-CPU on a node without MPI ranks
)

// Node is one vertex of a time-attribution tree.
type Node struct {
	Label string `json:"label"`
	// Kind is run, node, cpu or category.
	Kind    string  `json:"kind"`
	Seconds float64 `json:"seconds"`
	// Parallel marks a vertex whose children are concurrent timelines
	// (a run's nodes, a node's CPUs): each child covers the parent's
	// interval, so children individually equal the parent rather than
	// summing to it. Category children of a CPU are an additive
	// partition instead.
	Parallel bool    `json:"parallel,omitempty"`
	Children []*Node `json:"children,omitempty"`
	// Count carries a category's event count where one is meaningful
	// (retransmissions, SMM episodes).
	Count int64 `json:"count,omitempty"`
	// Anomalies records accounting irregularities found while building
	// this vertex (clamped negatives, unmatched span edges) — the
	// report's analogue of trace.TaskSample.Anomalous.
	Anomalies []string `json:"anomalies,omitempty"`
}

// Violation is one failed attribution invariant.
type Violation struct {
	Path   string `json:"path"`
	Detail string `json:"detail"`
}

// Check verifies the tree's invariants recursively: category children
// sum to their parent within tol (relative), parallel children each
// match their parent within tol, every vertex is non-negative, and no
// category exceeds its parent. Anomalies recorded during construction
// are violations too — they mean the partition needed clamping.
func (n *Node) Check(tol float64) []Violation {
	var out []Violation
	n.check("", tol, &out)
	return out
}

func (n *Node) check(prefix string, tol float64, out *[]Violation) {
	path := n.Label
	if prefix != "" {
		path = prefix + "/" + n.Label
	}
	if n.Seconds < 0 {
		*out = append(*out, Violation{path, fmt.Sprintf("negative time %.6g s", n.Seconds)})
	}
	for _, a := range n.Anomalies {
		*out = append(*out, Violation{path, a})
	}
	if len(n.Children) > 0 {
		slack := tol * n.Seconds
		if n.Parallel {
			for _, c := range n.Children {
				if d := c.Seconds - n.Seconds; d > slack || d < -slack {
					*out = append(*out, Violation{path, fmt.Sprintf(
						"parallel child %s covers %.6g s of a %.6g s parent (tol %.2g%%)",
						c.Label, c.Seconds, n.Seconds, tol*100)})
				}
			}
		} else {
			var sum float64
			for _, c := range n.Children {
				sum += c.Seconds
				if c.Seconds > n.Seconds+slack {
					*out = append(*out, Violation{path, fmt.Sprintf(
						"child %s (%.6g s) exceeds parent (%.6g s)", c.Label, c.Seconds, n.Seconds)})
				}
			}
			if d := sum - n.Seconds; d > slack || d < -slack {
				*out = append(*out, Violation{path, fmt.Sprintf(
					"children sum to %.6g s, parent is %.6g s (tol %.2g%%)", sum, n.Seconds, tol*100)})
			}
		}
	}
	for _, c := range n.Children {
		c.check(path, tol, out)
	}
}

// Find walks the tree by labels.
func (n *Node) Find(labels ...string) *Node {
	cur := n
	for _, l := range labels {
		var next *Node
		for _, c := range cur.Children {
			if c.Label == l {
				next = c
				break
			}
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

// CategoryTotal sums the given category's seconds over every CPU leaf
// under n, alongside the total wall-seconds of those leaves, so a
// caller can form the category's overall fraction.
func (n *Node) CategoryTotal(category string) (catSec, wallSec float64) {
	if n.Kind == "cpu" {
		wallSec += n.Seconds
		for _, c := range n.Children {
			if c.Label == category {
				catSec += c.Seconds
			}
		}
		return
	}
	for _, c := range n.Children {
		cs, ws := c.CategoryTotal(category)
		catSec += cs
		wallSec += ws
	}
	return
}

// RankStats summarizes one MPI rank's traffic in a run.
type RankStats struct {
	Node        int32   `json:"node"`
	Rank        int     `json:"rank"`
	Sends       int64   `json:"sends"`
	Recvs       int64   `json:"recvs"`
	SendBytes   int64   `json:"send_bytes"`
	CollSeconds float64 `json:"coll_seconds"`
}

// RunAttribution is one run's attribution tree plus per-rank traffic.
type RunAttribution struct {
	Run         int32       `json:"run"`
	WallSeconds float64     `json:"wall_seconds"`
	Tree        *Node       `json:"tree"`
	Ranks       []RankStats `json:"ranks,omitempty"`
}

// iv is a half-open interval [lo, hi) on the simulation timeline.
type iv struct{ lo, hi sim.Time }

// clipMerge sorts, clips to [0, wall] and merges overlapping intervals.
func clipMerge(ivs []iv, wall sim.Time) []iv {
	var out []iv
	for _, x := range ivs {
		if x.lo < 0 {
			x.lo = 0
		}
		if x.hi > wall {
			x.hi = wall
		}
		if x.hi > x.lo {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lo < out[j].lo })
	merged := out[:0]
	for _, x := range out {
		if n := len(merged); n > 0 && x.lo <= merged[n-1].hi {
			if x.hi > merged[n-1].hi {
				merged[n-1].hi = x.hi
			}
			continue
		}
		merged = append(merged, x)
	}
	return merged
}

// total sums interval lengths.
func total(ivs []iv) sim.Time {
	var t sim.Time
	for _, x := range ivs {
		t += x.hi - x.lo
	}
	return t
}

// complement returns [0, wall] minus the merged set.
func complement(a []iv, wall sim.Time) []iv {
	var out []iv
	cur := sim.Time(0)
	for _, x := range a {
		if x.lo > cur {
			out = append(out, iv{cur, x.lo})
		}
		cur = x.hi
	}
	if cur < wall {
		out = append(out, iv{cur, wall})
	}
	return out
}

// splitBy partitions the merged set a into the parts that do / do not
// contain any of the given instants.
func splitBy(a []iv, instants []sim.Time) (with, without []iv) {
	for _, x := range a {
		hit := false
		for _, t := range instants {
			if t >= x.lo && t < x.hi {
				hit = true
				break
			}
		}
		if hit {
			with = append(with, x)
		} else {
			without = append(without, x)
		}
	}
	return
}

// Attribute builds one attribution tree per run in the trace.
func Attribute(tr *obs.Trace) []RunAttribution {
	var out []RunAttribution
	for _, run := range tr.RunIDs() {
		out = append(out, attributeRun(tr, run))
	}
	return out
}

func attributeRun(tr *obs.Trace, run int32) RunAttribution {
	spans := tr.Select(run, obs.TrackUnknown)
	ra := RunAttribution{Run: run}
	root := &Node{Label: fmt.Sprintf("run%d", run), Kind: "run", Parallel: true}
	ra.Tree = root

	// Wall time: the sweep-cell span; without one (a torn trace, or a
	// run traced outside the runner) fall back to the last event time.
	var wall sim.Time
	haveCell := false
	for _, s := range spans {
		if s.Kind == obs.TrackCells && !s.Instant && s.Name == "cell" {
			wall = s.Dur
			haveCell = true
		}
	}
	if !haveCell {
		for _, s := range spans {
			if s.End() > wall {
				wall = s.End()
			}
		}
		if wall > 0 {
			root.Anomalies = append(root.Anomalies,
				"no sweep-cell span: wall time estimated from the last event")
		}
	}
	root.Seconds = wall.Seconds()
	ra.WallSeconds = wall.Seconds()

	// Group the run's node-scoped spans by node.
	perNode := map[int32][]obs.Span{}
	var nodes []int32
	for _, s := range spans {
		if s.Node < 0 {
			continue
		}
		if _, ok := perNode[s.Node]; !ok {
			nodes = append(nodes, s.Node)
		}
		perNode[s.Node] = append(perNode[s.Node], s)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	for _, node := range nodes {
		nn, ranks := attributeNode(node, perNode[node], wall)
		root.Children = append(root.Children, nn)
		ra.Ranks = append(ra.Ranks, ranks...)
	}
	return ra
}

// attributeNode partitions each of a node's CPU timelines.
func attributeNode(node int32, spans []obs.Span, wall sim.Time) (*Node, []RankStats) {
	nn := &Node{Label: fmt.Sprintf("node%d", node), Kind: "node",
		Seconds: wall.Seconds(), Parallel: true}

	var smm []iv
	var retrans []sim.Time
	taskNames := map[int64]string{}
	var sched []obs.Span                // the node's scheduling edges, every CPU
	steals := map[int]map[string][]iv{} // cpu → noise family → steal windows
	rankStats := map[int]*RankStats{}
	hasRanks := false

	for _, s := range spans {
		switch s.Kind {
		case obs.TrackSMM:
			if !s.Instant {
				smm = append(smm, iv{s.Start, s.End()})
			}
		case obs.TrackSteal:
			if !s.Instant {
				fams := steals[s.Index]
				if fams == nil {
					fams = map[string][]iv{}
					steals[s.Index] = fams
				}
				fams[s.Name] = append(fams[s.Name], iv{s.Start, s.End()})
			}
		case obs.TrackTransport:
			if s.Instant {
				retrans = append(retrans, s.Start)
			}
		case obs.TrackTasks:
			if s.Instant && s.Name != "exit" {
				taskNames[s.A] = s.Name
			}
		case obs.TrackCPU:
			if s.Instant {
				sched = append(sched, s)
			}
		case obs.TrackRank:
			hasRanks = true
			rs := rankStats[s.Index]
			if rs == nil {
				rs = &RankStats{Node: node, Rank: s.Index}
				rankStats[s.Index] = rs
			}
			switch {
			case s.Instant && s.Name == "send":
				rs.Sends++
				rs.SendBytes += s.B
			case s.Instant && s.Name == "recv":
				rs.Recvs++
			case !s.Instant:
				rs.CollSeconds += s.Dur.Seconds()
			}
		}
	}
	smm = clipMerge(smm, wall)
	occ := replaySched(sched, wall)

	// CPUs appear from scheduling events or from steal windows — a core
	// that only ever got stolen from still owns a timeline.
	var cpus []int
	for c := range occ {
		cpus = append(cpus, c)
	}
	for c := range steals {
		if _, ok := occ[c]; !ok {
			cpus = append(cpus, c)
		}
	}
	sort.Ints(cpus)
	for _, c := range cpus {
		o := occ[c]
		if o == nil {
			o = &occupancy{}
		}
		nn.Children = append(nn.Children,
			attributeCPU(c, o, smm, steals[c], retrans, wall, hasRanks, taskNames))
	}

	var ranks []RankStats
	var ids []int
	for r := range rankStats {
		ids = append(ids, r)
	}
	sort.Ints(ids)
	for _, r := range ids {
		ranks = append(ranks, *rankStats[r])
	}
	return nn, ranks
}

// occupancy is one logical CPU's timeline as its scheduling edges tell it.
type occupancy struct {
	busy      []iv          // merged windows with at least one thread placed
	anomalies int           // leave edges for threads not placed here
	runs      map[int64]int // thread id → run/migrate-in count, for the label
	load      int           // threads placed at the current replay point
	open      sim.Time      // start of the current busy window
}

// replaySched replays a node's scheduling edges in emission order,
// tracking which CPU each thread occupies. A CPU is busy while any
// thread is placed on it, so several threads sharing a CPU, a
// zero-length run (run then preempt at one instant) and a migration
// (which leaves its source CPU B without an edge on that CPU's track)
// all come out exact. A preempt or migration away from a CPU the thread
// does not occupy is an anomaly: the trace starts mid-run or is lossy.
func replaySched(sched []obs.Span, wall sim.Time) map[int]*occupancy {
	sort.SliceStable(sched, func(i, j int) bool {
		if sched[i].Start != sched[j].Start {
			return sched[i].Start < sched[j].Start
		}
		return sched[i].Seq < sched[j].Seq
	})
	occ := map[int]*occupancy{}
	cpu := func(c int) *occupancy {
		o := occ[c]
		if o == nil {
			o = &occupancy{runs: map[int64]int{}}
			occ[c] = o
		}
		return o
	}
	where := map[int64]int{} // thread id → CPU it occupies
	leave := func(tid int64, c int, at sim.Time) bool {
		if w, ok := where[tid]; !ok || w != c {
			return false
		}
		delete(where, tid)
		o := cpu(c)
		if o.load--; o.load == 0 {
			o.busy = append(o.busy, iv{o.open, at})
		}
		return true
	}
	join := func(tid int64, c int, at sim.Time) {
		if w, ok := where[tid]; ok {
			leave(tid, w, at)
		}
		where[tid] = c
		o := cpu(c)
		if o.load++; o.load == 1 {
			o.open = at
		}
		o.runs[tid]++
	}
	for _, e := range sched {
		switch e.Name {
		case "run":
			join(e.A, e.Index, e.Start)
		case "migrate":
			if !leave(e.A, int(e.B), e.Start) {
				cpu(int(e.B)).anomalies++
			}
			join(e.A, e.Index, e.Start)
		case "preempt":
			if !leave(e.A, e.Index, e.Start) {
				cpu(e.Index).anomalies++
			}
		}
	}
	for _, o := range occ {
		if o.load > 0 {
			o.busy = append(o.busy, iv{o.open, wall})
		}
		o.busy = clipMerge(o.busy, wall)
	}
	return occ
}

// attributeCPU partitions one logical CPU's [0, wall] exactly:
//
//	on-CPU  ∖ claimed          → compute
//	SMM residency              → smm-stolen (stalled whether running or waiting)
//	family steal windows       → <family>-stolen (per-CPU steals, e.g. osjitter)
//	off-CPU ∖ claimed, marked  → fault-retransmit (a retransmission fired inside)
//	off-CPU ∖ claimed, rest    → comm-wait (MPI node) or idle
//
// where claimed is the union of the SMM windows and every family's
// steal windows. Overlaps are resolved deterministically — SMM claims
// first, then families in sorted name order — so the partition stays
// exhaustive and disjoint and the category leaves sum to the wall time
// exactly; clamping never occurs by construction, and unmatched
// scheduling edges are surfaced as anomalies instead of silently
// skewing a bucket.
func attributeCPU(cpu int, occ *occupancy, smm []iv, steals map[string][]iv,
	retrans []sim.Time, wall sim.Time, hasRanks bool, taskNames map[int64]string) *Node {

	busy := occ.busy

	// Resolve overlapping claims deterministically: SMM first, then each
	// family's per-CPU steal windows in sorted name order, each family
	// keeping only what no earlier claimant took.
	var fams []string
	for f := range steals {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	claimed := smm
	type famPart struct {
		name string
		ivs  []iv
	}
	var famParts []famPart
	for _, f := range fams {
		st := subtract(clipMerge(steals[f], wall), claimed)
		famParts = append(famParts, famPart{f, st})
		claimed = clipMerge(append(append([]iv(nil), claimed...), st...), wall)
	}

	computeIv := subtract(busy, claimed)
	off := complement(busy, wall)
	offAwake := subtract(off, claimed)
	waitRetrans, waitPlain := splitBy(offAwake, retrans)

	label := fmt.Sprintf("cpu%d", cpu)
	if name := majorityName(occ.runs, taskNames); name != "" {
		label += " · " + name
	}
	n := &Node{Label: label, Kind: "cpu", Seconds: wall.Seconds()}
	if occ.anomalies > 0 {
		n.Anomalies = append(n.Anomalies,
			fmt.Sprintf("%d unmatched preempt edges (trace starts mid-run or is lossy)", occ.anomalies))
	}
	waitCat := CatIdle
	if hasRanks {
		waitCat = CatCommWait
	}
	cats := []struct {
		label string
		secs  float64
		count int64
	}{
		{CatCompute, total(computeIv).Seconds(), 0},
		{CatSMMStolen, total(smm).Seconds(), int64(len(smm))},
	}
	for _, fp := range famParts {
		cats = append(cats, struct {
			label string
			secs  float64
			count int64
		}{fp.name + "-stolen", total(fp.ivs).Seconds(), int64(len(fp.ivs))})
	}
	cats = append(cats, []struct {
		label string
		secs  float64
		count int64
	}{
		{waitCat, total(waitPlain).Seconds(), 0},
		{CatRetransmit, total(waitRetrans).Seconds(), int64(len(waitRetrans))},
	}...)
	for _, c := range cats {
		if c.secs == 0 && c.count == 0 {
			continue
		}
		n.Children = append(n.Children, &Node{
			Label: c.label, Kind: "category", Seconds: c.secs, Count: c.count,
		})
	}
	return n
}

// subtract returns a ∖ b for merged interval sets.
func subtract(a, b []iv) []iv {
	var out []iv
	j := 0
	for _, x := range a {
		lo := x.lo
		for j < len(b) && b[j].hi <= lo {
			j++
		}
		k := j
		for k < len(b) && b[k].lo < x.hi {
			if b[k].lo > lo {
				out = append(out, iv{lo, b[k].lo})
			}
			if b[k].hi > lo {
				lo = b[k].hi
			}
			k++
		}
		if lo < x.hi {
			out = append(out, iv{lo, x.hi})
		}
	}
	return out
}

// majorityName resolves the thread holding the most run instants on a
// CPU to its task name, empty when unknown.
func majorityName(occupant map[int64]int, taskNames map[int64]string) string {
	best, bestN := int64(-1), 0
	for id, n := range occupant {
		if n > bestN || (n == bestN && id < best) {
			best, bestN = id, n
		}
	}
	if bestN == 0 {
		return ""
	}
	return taskNames[best]
}

// Aggregate averages several structurally matching run trees (the
// repetitions of one cell) into one mean tree; structure is matched by
// label path, and vertices missing from some runs average over the
// runs that have them.
func Aggregate(runs []RunAttribution) *Node {
	if len(runs) == 0 {
		return nil
	}
	agg := &Node{Label: fmt.Sprintf("mean of %d runs", len(runs)), Kind: "run", Parallel: true}
	var fold func(dst *Node, src *Node, w float64)
	fold = func(dst *Node, src *Node, w float64) {
		dst.Seconds += src.Seconds * w
		dst.Count += src.Count
		for _, sc := range src.Children {
			var dc *Node
			for _, c := range dst.Children {
				if c.Label == sc.Label {
					dc = c
					break
				}
			}
			if dc == nil {
				dc = &Node{Label: sc.Label, Kind: sc.Kind, Parallel: sc.Parallel}
				dst.Children = append(dst.Children, dc)
			}
			fold(dc, sc, w)
		}
	}
	w := 1.0 / float64(len(runs))
	for _, r := range runs {
		fold(agg, r.Tree, w)
	}
	return agg
}
