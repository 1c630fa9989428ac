package fidelity

import (
	"fmt"
	"math"
	"sort"

	"smistudy"
	"smistudy/internal/analytic"
	"smistudy/internal/experiments"
	"smistudy/internal/metrics"
	"smistudy/internal/paperdata"
	"smistudy/internal/stats"
)

// The gate calibration. Thresholds are set from the committed
// full-scale results with slack, so the tree as reproduced passes and a
// physics change (or a regression in the simulator) trips them; the
// rationale per artifact is in DESIGN.md §8.
const (
	// Mean relative baseline (SMM0) error budget per table. EP is
	// communication-free and tracks the paper tightly; BT and FT
	// inherit the paper's own multi-node network artifacts, which the
	// reproduction does not model per-switch, so their budgets cover
	// the divergence measured at calibration time (0.44 and 0.27)
	// without letting it grow.
	baselineBudgetEP = 0.05
	baselineBudgetBT = 0.55
	baselineBudgetFT = 0.40
	// Fraction of cells whose long-SMM impact must agree in sign with
	// the paper (within ±2 percentage points of zero counts as
	// agreement — near-zero cells have no meaningful direction).
	directionFloor = 0.75
	directionEps   = 2.0
	// Model-vs-simulator residual band: sim/analytic within ×(1±0.2).
	modelResidualTol = 0.2
	// HTT: without SMM the simulator's HT-on and HT-off runs must be
	// equal to numerical noise (the rendezvous cost only exists in SMM).
	httParityTol = 0.005
	// Figure endpoint ratios, calibrated from the committed sweeps
	// (Convolve 50 ms vs 1500 ms ≈ 2.9×, UnixBench 1600 ms vs
	// 100 ms ≈ 1.94×), with ±25% slack.
	figure1Endpoint    = 2.90
	figure2Endpoint    = 1.94
	figureEndpointBand = 0.25
	// Monotonicity slack per step, as a fraction of the earlier point.
	monotoneSlack = 0.05
)

func bandDesc(b paperdata.Band) string {
	switch {
	case b.Abs == 0:
		return fmt.Sprintf("±%g%% rel", b.Rel*100)
	case b.Rel == 0:
		return fmt.Sprintf("±%g abs", b.Abs)
	}
	return fmt.Sprintf("±(%g + %g%%)", b.Abs, b.Rel*100)
}

// bandCheck judges one sampled metric against a paperdata band.
func bandCheck(rep *Report, artifact, name string, s *metrics.Stream, e *paperdata.Expectation) {
	got := s.Mean()
	rep.add(Check{
		Artifact: artifact, Name: name, Kind: "band",
		Got: got, Want: e.Want, Tol: bandDesc(e.Band),
		Pass:   e.Band.Within(got, e.Want),
		Detail: fmt.Sprintf("margin %.2f× of tolerance", e.Band.Margin(got, e.Want)),
		N:      s.N(), CI95: s.CI95(),
	})
}

// cellSamples accumulates one table cell's metrics across seeds.
type cellSamples struct {
	base, shortPct, longPct metrics.Stream
}

// nasArtifact validates one of Tables 1–3: per-cell expectation bands
// on the single-node cells, an aggregate baseline error budget, a
// long-impact direction-agreement floor, and (for the benchmarks where
// the paper shows it cleanly) the impact-grows-with-nodes ordering.
func nasArtifact(cfg Config, exp paperdata.ExpectationSet, rep *Report,
	name string, gen func(experiments.Config) (experiments.NASTable, error)) ([]byte, error) {

	samples := map[string]*cellSamples{}
	var first experiments.NASTable
	for i, seed := range cfg.seeds() {
		t, err := gen(cfg.expCfg(seed))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = t
		}
		for _, row := range t.Rows {
			for _, half := range []struct {
				rpn int
				tr  *experiments.Triple
			}{{1, row.One}, {4, row.Four}} {
				if half.tr == nil {
					continue
				}
				key := paperdata.CellKey(string(t.Bench), byte(row.Class), row.Nodes, half.rpn)
				cs := samples[key]
				if cs == nil {
					cs = &cellSamples{}
					samples[key] = cs
				}
				cs.base.Add(half.tr.SMM0)
				cs.shortPct.Add(half.tr.PctShort())
				cs.longPct.Add(half.tr.PctLong())
			}
		}
	}
	bench := string(first.Bench)

	// Per-cell bands, in the paper's cell order.
	for _, c := range paperdata.Tables1to3 {
		if c.Bench != bench {
			continue
		}
		key := paperdata.CellKey(c.Bench, c.Class, c.Nodes, c.RanksPerNode)
		cs := samples[key]
		if cs == nil {
			continue // cell outside this tier's grid
		}
		for _, m := range []struct {
			metric string
			s      *metrics.Stream
		}{
			{paperdata.MetricBaseSeconds, &cs.base},
			{paperdata.MetricShortPct, &cs.shortPct},
			{paperdata.MetricLongPct, &cs.longPct},
		} {
			if e := exp.Find(name, key, m.metric); e != nil {
				bandCheck(rep, name, key+" "+m.metric, m.s, e)
			}
		}
	}

	// Aggregate baseline budget and direction agreement over every
	// measured cell with a paper entry.
	budget := map[string]float64{"EP": baselineBudgetEP, "BT": baselineBudgetBT, "FT": baselineBudgetFT}[bench]
	var errSum float64
	cells, agree, dirN := 0, 0, 0
	for _, c := range paperdata.Tables1to3 {
		if c.Bench != bench {
			continue
		}
		cs := samples[paperdata.CellKey(c.Bench, c.Class, c.Nodes, c.RanksPerNode)]
		if cs == nil {
			continue
		}
		errSum += stats.RelErr(cs.base.Mean(), c.SMM0)
		cells++
		dirN++
		if stats.SameSign(cs.longPct.Mean(), c.PctLong(), directionEps) {
			agree++
		}
	}
	if cells > 0 {
		rep.add(Check{Artifact: name, Name: "mean baseline rel err", Kind: "aggregate",
			Got: errSum / float64(cells), Want: budget, Tol: "≤ want",
			Pass:   errSum/float64(cells) <= budget,
			Detail: fmt.Sprintf("%d cells vs paper", cells)})
		rep.add(Check{Artifact: name, Name: "long-impact direction agreement", Kind: "aggregate",
			Got: float64(agree) / float64(dirN), Want: directionFloor, Tol: "≥ want",
			Pass:   float64(agree)/float64(dirN) >= directionFloor,
			Detail: fmt.Sprintf("%d/%d cells match the paper's sign (±%g pp ≈ 0)", agree, dirN, directionEps)})
	}

	// Ordering: the paper's headline scaling claim — long-SMM impact
	// grows with node count — holds cleanly for BT and EP (Tables 1–2);
	// FT's multi-node cells are non-monotone in the paper itself.
	if bench == "BT" || bench == "EP" {
		nasOrderingChecks(rep, name, bench, samples)
	}
	s, err := experiments.ToJSON(first)
	return []byte(s), err
}

// nasOrderingChecks asserts longPct(max nodes) > longPct(1 node) per
// (class, ranks-per-node) series of the table.
func nasOrderingChecks(rep *Report, name, bench string, samples map[string]*cellSamples) {
	type series struct {
		class byte
		rpn   int
	}
	byNodes := map[series]map[int]float64{}
	var keys []series
	for _, c := range paperdata.Tables1to3 {
		if c.Bench != bench {
			continue
		}
		cs := samples[paperdata.CellKey(c.Bench, c.Class, c.Nodes, c.RanksPerNode)]
		if cs == nil {
			continue
		}
		sk := series{c.Class, c.RanksPerNode}
		if byNodes[sk] == nil {
			byNodes[sk] = map[int]float64{}
			keys = append(keys, sk)
		}
		byNodes[sk][c.Nodes] = cs.longPct.Mean()
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].class != keys[j].class {
			return keys[i].class < keys[j].class
		}
		return keys[i].rpn < keys[j].rpn
	})
	for _, sk := range keys {
		pts := byNodes[sk]
		minN, maxN := 0, 0
		for n := range pts {
			if minN == 0 || n < minN {
				minN = n
			}
			if n > maxN {
				maxN = n
			}
		}
		if minN == maxN {
			continue
		}
		rep.add(Check{Artifact: name,
			Name: fmt.Sprintf("%c.r%d long impact grows %d→%d nodes", sk.class, sk.rpn, minN, maxN),
			Kind: "ordering", Got: pts[maxN], Want: pts[minN], Tol: "> want",
			Pass:   pts[maxN] > pts[minN],
			Detail: "synchronization amplifies per-node noise with scale"})
	}
}

// httArtifact validates Table 4 or 5: HT-on and HT-off must coincide
// without SMM, and the long-SMM HTT effect must reproduce the paper's
// direction — a consistent penalty for EP (the extra rendezvous
// latency of 2× logical CPUs), and a small mixed effect for FT.
func httArtifact(cfg Config, rep *Report, name string,
	gen func(experiments.Config) (experiments.HTTTable, error)) ([]byte, error) {

	var parity, longDelta, absLongDelta metrics.Stream
	nonNeg, rows := 0, 0
	var first experiments.HTTTable
	for i, seed := range cfg.seeds() {
		t, err := gen(cfg.expCfg(seed))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = t
		}
		for _, row := range t.Rows {
			parity.Add(math.Abs(row.On.SMM0-row.Off.SMM0) / row.Off.SMM0)
			pct := (row.On.SMM2 - row.Off.SMM2) / row.Off.SMM2 * 100
			longDelta.Add(pct)
			absLongDelta.Add(math.Abs(pct))
			rows++
			if pct >= 0 {
				nonNeg++
			}
		}
	}
	rep.add(Check{Artifact: name, Name: "HT parity without SMM", Kind: "aggregate",
		Got: parity.Mean(), Want: httParityTol, Tol: "≤ want",
		Pass:   parity.Mean() <= httParityTol,
		Detail: "HT-on must equal HT-off when no SMIs fire",
		N:      parity.N(), CI95: parity.CI95()})
	if name == "table4" {
		rep.add(Check{Artifact: name, Name: "mean HTT long-SMI penalty %", Kind: "ordering",
			Got: longDelta.Mean(), Want: 0, Tol: "> want",
			Pass:   longDelta.Mean() > 0,
			Detail: "HT-off beats HT-on under long SMIs on EP (2× CPUs to rendezvous)",
			N:      longDelta.N(), CI95: longDelta.CI95()})
		rep.add(Check{Artifact: name, Name: "rows with HTT penalty ≥ 0", Kind: "aggregate",
			Got: float64(nonNeg) / float64(rows), Want: 0.8, Tol: "≥ want",
			Pass:   float64(nonNeg)/float64(rows) >= 0.8,
			Detail: fmt.Sprintf("%d/%d rows", nonNeg, rows)})
	} else {
		rep.add(Check{Artifact: name, Name: "mean |HTT long-SMI effect| %", Kind: "aggregate",
			Got: absLongDelta.Mean(), Want: 2.5, Tol: "≤ want",
			Pass:   absLongDelta.Mean() <= 2.5,
			Detail: "the paper's FT HTT effect is small in both directions",
			N:      absLongDelta.N(), CI95: absLongDelta.CI95()})
	}
	s, err := experiments.ToJSON(first)
	return []byte(s), err
}

// figure1Artifact validates the Convolve study: execution time falls
// monotonically as the SMI interval grows for every CPU count and both
// cache behaviours, the 50 ms-vs-longest-interval ratio matches the
// committed calibration, and the cache-unfriendly variant is always the
// slower one (SMM flushes cost it more, the paper's Figure 1 contrast).
func figure1Artifact(cfg Config, rep *Report) ([]byte, error) {
	type seriesKey struct {
		beh  smistudy.CacheBehavior
		cpus int
	}
	acc := map[seriesKey]map[int]*metrics.Stream{}
	var first experiments.Figure1
	for i, seed := range cfg.seeds() {
		f, err := experiments.Figure1Convolve(cfg.expCfg(seed))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = f
		}
		for _, p := range f.Points {
			sk := seriesKey{p.Behavior, p.CPUs}
			if acc[sk] == nil {
				acc[sk] = map[int]*metrics.Stream{}
			}
			if acc[sk][p.IntervalMS] == nil {
				acc[sk][p.IntervalMS] = &metrics.Stream{}
			}
			acc[sk][p.IntervalMS].Add(p.Seconds)
		}
	}
	var keys []seriesKey
	for sk := range acc {
		keys = append(keys, sk)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].beh != keys[j].beh {
			return keys[i].beh < keys[j].beh
		}
		return keys[i].cpus < keys[j].cpus
	})
	monotone, total := 0, 0
	var endpoint1 float64
	for _, sk := range keys {
		ivs := sortedKeys(acc[sk])
		var ys []float64
		for _, iv := range ivs {
			ys = append(ys, acc[sk][iv].Mean())
		}
		total++
		if stats.Monotone(ys, stats.Decreasing, monotoneSlack) {
			monotone++
		}
		if sk.cpus == 1 && sk.beh == smistudy.CacheUnfriendly && len(ys) > 1 {
			endpoint1 = ys[0] / ys[len(ys)-1]
		}
	}
	rep.add(Check{Artifact: "figure1", Name: "time falls with SMI interval", Kind: "ordering",
		Got: float64(monotone), Want: float64(total), Tol: "= want",
		Pass:   monotone == total,
		Detail: fmt.Sprintf("%d/%d (behaviour × CPUs) series monotone decreasing (slack %g)", monotone, total, monotoneSlack)})
	band := paperdata.Band{Rel: figureEndpointBand}
	rep.add(Check{Artifact: "figure1", Name: "1-CPU cache-unfriendly 50ms/longest ratio", Kind: "band",
		Got: endpoint1, Want: figure1Endpoint, Tol: bandDesc(band),
		Pass:   band.Within(endpoint1, figure1Endpoint),
		Detail: "calibrated duty-cycle cost of the densest SMI schedule"})
	// Cache-unfriendly pays more than cache-friendly at the densest
	// schedule, for every CPU count.
	worse, cpusN := 0, 0
	for _, sk := range keys {
		if sk.beh != smistudy.CacheUnfriendly {
			continue
		}
		ivs := sortedKeys(acc[sk])
		friendly := acc[seriesKey{smistudy.CacheFriendly, sk.cpus}]
		if friendly == nil || len(ivs) == 0 {
			continue
		}
		cpusN++
		if acc[sk][ivs[0]].Mean() > friendly[ivs[0]].Mean() {
			worse++
		}
	}
	rep.add(Check{Artifact: "figure1", Name: "cache-unfriendly slower at 50ms", Kind: "ordering",
		Got: float64(worse), Want: float64(cpusN), Tol: "= want",
		Pass:   worse == cpusN,
		Detail: "SMM-induced cache flushes must cost the unfriendly workload more"})
	s, err := experiments.ToJSON(first)
	return []byte(s), err
}

// figure2Artifact validates the UnixBench study: the index score rises
// monotonically with the SMI interval for every CPU count, and the
// longest/shortest-interval score ratio matches calibration.
func figure2Artifact(cfg Config, rep *Report) ([]byte, error) {
	acc := map[int]map[int]*metrics.Stream{}
	var first experiments.Figure2
	for i, seed := range cfg.seeds() {
		f, err := experiments.Figure2UnixBench(cfg.expCfg(seed))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = f
		}
		for _, p := range f.Points {
			if acc[p.CPUs] == nil {
				acc[p.CPUs] = map[int]*metrics.Stream{}
			}
			if acc[p.CPUs][p.IntervalMS] == nil {
				acc[p.CPUs][p.IntervalMS] = &metrics.Stream{}
			}
			acc[p.CPUs][p.IntervalMS].Add(p.Score)
		}
	}
	var cpus []int
	for c := range acc {
		cpus = append(cpus, c)
	}
	sort.Ints(cpus)
	monotone, total := 0, 0
	var endpoint1 float64
	for _, c := range cpus {
		ivs := sortedKeys(acc[c])
		var ys []float64
		for _, iv := range ivs {
			ys = append(ys, acc[c][iv].Mean())
		}
		total++
		if stats.Monotone(ys, stats.Increasing, monotoneSlack) {
			monotone++
		}
		if c == 1 && len(ys) > 1 {
			endpoint1 = ys[len(ys)-1] / ys[0]
		}
	}
	rep.add(Check{Artifact: "figure2", Name: "score rises with SMI interval", Kind: "ordering",
		Got: float64(monotone), Want: float64(total), Tol: "= want",
		Pass:   monotone == total,
		Detail: fmt.Sprintf("%d/%d CPU-count series monotone increasing (slack %g)", monotone, total, monotoneSlack)})
	band := paperdata.Band{Rel: figureEndpointBand}
	rep.add(Check{Artifact: "figure2", Name: "1-CPU longest/shortest score ratio", Kind: "band",
		Got: endpoint1, Want: figure2Endpoint, Tol: bandDesc(band),
		Pass:   band.Within(endpoint1, figure2Endpoint),
		Detail: "calibrated recovery of the index score as SMIs thin out"})
	s, err := experiments.ToJSON(first)
	return []byte(s), err
}

// modelArtifact validates the closed-form-model cross-check: every
// sim-vs-analytic residual inside ×(1±tol), per row and in aggregate.
func modelArtifact(cfg Config, rep *Report) ([]byte, error) {
	var first experiments.ModelResult
	var worst []analytic.Residual
	for i, seed := range cfg.seeds() {
		m, err := experiments.ModelData(cfg.expCfg(seed))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = m
			for _, row := range m.Rows {
				r := analytic.Residual{Simulated: row.SimRunS, Predicted: row.PredictS}
				rep.add(Check{Artifact: "model",
					Name: fmt.Sprintf("%d nodes × %s residual", row.Nodes, row.Step),
					Kind: "residual", Got: r.Ratio(), Want: 1,
					Tol:    fmt.Sprintf("×(1±%g)", modelResidualTol),
					Pass:   r.Within(modelResidualTol),
					Detail: "simulated/analytic time for the same superstep schedule"})
			}
		}
		worst = append(worst, m.Residuals()...)
	}
	maxLE := analytic.MaxLogError(worst)
	rep.add(Check{Artifact: "model", Name: "max log residual (all seeds)", Kind: "residual",
		Got: maxLE, Want: math.Log(1 + modelResidualTol), Tol: "≤ want",
		Pass:   maxLE <= math.Log(1+modelResidualTol),
		Detail: fmt.Sprintf("%d residuals", len(worst))})
	s, err := experiments.ToJSON(first)
	return []byte(s), err
}

// amplificationArtifact validates the Ferreira-style amplification
// extension: one node has no one to amplify to (factor ≈ 1), and
// synchronization propagates noise with scale (16-node EP amplifies
// more than 1-node EP; full tier also pins BT above EP — tight
// coupling amplifies more than embarrassing parallelism).
func amplificationArtifact(cfg Config, rep *Report) ([]byte, error) {
	type key struct {
		bench string
		class byte
		nodes int
	}
	acc := map[key]*metrics.Stream{}
	var first experiments.AmpResult
	for i, seed := range cfg.seeds() {
		a, err := experiments.AmplificationData(cfg.expCfg(seed))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = a
		}
		for _, c := range a.Cells {
			k := key{c.Bench, c.Class[0], c.Nodes}
			if acc[k] == nil {
				acc[k] = &metrics.Stream{}
			}
			acc[k].Add(c.Factor)
		}
	}
	factor := func(bench string, class byte, nodes int) *metrics.Stream {
		return acc[key{bench, class, nodes}]
	}
	if s := factor("EP", 'A', 1); s != nil {
		band := paperdata.Band{Abs: 0.3}
		rep.add(Check{Artifact: "amplification", Name: "EP.A 1-node factor ≈ 1", Kind: "band",
			Got: s.Mean(), Want: 1, Tol: bandDesc(band),
			Pass:   band.Within(s.Mean(), 1),
			Detail: "one node's job pays exactly its own residency",
			N:      s.N(), CI95: s.CI95()})
	}
	if s1, s16 := factor("EP", 'A', 1), factor("EP", 'A', 16); s1 != nil && s16 != nil {
		rep.add(Check{Artifact: "amplification", Name: "EP.A 16 nodes > 1 node", Kind: "ordering",
			Got: s16.Mean(), Want: s1.Mean(), Tol: "> want",
			Pass:   s16.Mean() > s1.Mean(),
			Detail: "the max-over-nodes tail grows with node count"})
	}
	if sEP, sBT := factor("EP", 'A', 16), factor("BT", 'A', 16); sEP != nil && sBT != nil {
		rep.add(Check{Artifact: "amplification", Name: "BT.A 16 nodes > EP.A 16 nodes", Kind: "ordering",
			Got: sBT.Mean(), Want: sEP.Mean(), Tol: "> want",
			Pass:   sBT.Mean() > sEP.Mean(),
			Detail: "tight coupling amplifies more than embarrassing parallelism"})
	}
	s, err := experiments.ToJSON(first)
	return []byte(s), err
}

// faultsArtifact validates the single-node degradation study: one
// degraded node costs most of the whole-fabric price (max-over-nodes,
// not 1/n resource sharing), degrading everything is at least as bad,
// and an SMI storm's stretch tracks the injected residency.
func faultsArtifact(cfg Config, rep *Report) ([]byte, error) {
	var oneShare, stormShare metrics.Stream
	var first experiments.DegradeResult
	for i, seed := range cfg.seeds() {
		d, err := experiments.DegradeData(cfg.expCfg(seed))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = d
		}
		oneShare.Add(d.OneShare)
		stormShare.Add(d.StormShare)
	}
	// One degraded node must cost clearly more than its 1/n resource
	// share of the whole-fabric price (the max-over-nodes shape), but
	// not implausibly more than the whole fabric itself. It may exceed
	// 1 slightly: when every link is slow the stalls synchronize, while
	// one slow node desynchronizes the exchange pattern.
	propShare := 1.0 / float64(first.Nodes)
	floor := 1.25 * propShare
	rep.add(Check{Artifact: "faults", Name: "one-node share of whole-fabric cost", Kind: "aggregate",
		Got: oneShare.Mean(), Want: floor, Tol: "≥ want",
		Pass:   oneShare.Mean() >= floor,
		Detail: fmt.Sprintf("max-over-nodes; 1/n sharing would predict %.2f", propShare),
		N:      oneShare.N(), CI95: oneShare.CI95()})
	rep.add(Check{Artifact: "faults", Name: "one-node share sanity ceiling", Kind: "aggregate",
		Got: oneShare.Mean(), Want: 1.3, Tol: "≤ want",
		Pass:   oneShare.Mean() <= 1.3,
		Detail: "one node's links cannot cost far more than degrading every link"})
	band := paperdata.Band{Abs: 0.6}
	rep.add(Check{Artifact: "faults", Name: "storm stretch / injected residency", Kind: "band",
		Got: stormShare.Mean(), Want: 1, Tol: bandDesc(band),
		Pass:   band.Within(stormShare.Mean(), 1),
		Detail: "the job pays the noisy node's bill in full, not 1/n of it",
		N:      stormShare.N(), CI95: stormShare.CI95()})
	s, err := experiments.ToJSON(first)
	return []byte(s), err
}

// sortedKeys returns the sorted int keys of a sample map.
func sortedKeys(m map[int]*metrics.Stream) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
