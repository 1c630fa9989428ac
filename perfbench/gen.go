package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"smistudy/internal/scenario"
)

// cell is one generated simulation input: the spec JSON the program
// receives, a stable name within its workload (the key of the committed
// digests), and an optional golden pin.
type cell struct {
	name   string
	doc    []byte
	anchor *anchor
}

// newRand returns the generator for one seeded stream; stream separates
// independent uses of the same seed.
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// round rounds x to the given number of decimals, so generated specs
// stay readable.
func round(x float64, decimals int) float64 {
	p := math.Pow(10, float64(decimals))
	return math.Round(x*p) / p
}

// encode renders a spec in its canonical JSON form.
func encode(sp scenario.Spec) []byte {
	data, err := sp.JSON()
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding a generated spec: %v", err)) // generated specs are plain data
	}
	return data
}

// jitterSource draws one osjitter noise entry: a period within 2% of
// periodMS, 190–210 µs ticks, 10–30% spread. The ranges are narrow so
// that every seed asks for about the same amount of simulation.
func jitterSource(r *rand.Rand, periodMS float64) scenario.NoiseSource {
	return scenario.NoiseSource{
		Family:     scenario.NoiseOSJitter,
		PeriodMS:   round(periodMS*(0.98+0.04*r.Float64()), 1),
		DurationUS: round(190+20*r.Float64(), 0),
		JitterFrac: round(0.1+0.2*r.Float64(), 2),
	}
}

// cellSeed draws a positive spec seed.
func cellSeed(r *rand.Rand) int64 { return 1 + r.Int64N(1<<40) }

// mpiNoiseCells is the Tables 1–5 path: BT (class S) and FT (class A)
// on 4 nodes, at 1 rank per node and at 4 ranks per node with HTT off
// and on, under every noise family. The design is fixed; the seed draws
// each cell's run seed and jitter parameters.
func mpiNoiseCells(seed int64) []cell {
	r := newRand(seed, 1)
	type shape struct {
		name string
		m    scenario.Machine
	}
	shapes := []shape{
		{"rpn1", scenario.Machine{Nodes: 4, RanksPerNode: 1}},
		{"rpn4", scenario.Machine{Nodes: 4, RanksPerNode: 4}},
		{"rpn4-htt", scenario.Machine{Nodes: 4, RanksPerNode: 4, HTT: true}},
	}
	var out []cell
	for _, b := range []struct{ bench, class string }{{"BT", "S"}, {"FT", "A"}} {
		for _, sh := range shapes {
			for _, nz := range []string{"none", "smm-short", "smm-long", "osjitter", "smm-long+osjitter"} {
				sp := scenario.Spec{
					Workload: "nas",
					Machine:  sh.m,
					Seed:     cellSeed(r),
					Params:   scenario.Params{Bench: b.bench, Class: b.class},
				}
				switch nz {
				case "none":
					sp.SMM.Level = "none"
				case "smm-short":
					sp.SMM.Level = "short"
				case "smm-long":
					sp.SMM.Level = "long"
				case "osjitter":
					sp.Noise = []scenario.NoiseSource{jitterSource(r, 8)}
				case "smm-long+osjitter":
					sp.Noise = []scenario.NoiseSource{{Family: scenario.NoiseSMM, Level: "long"}, jitterSource(r, 8)}
				}
				name := fmt.Sprintf("%s-%s-%s-%s", b.bench, b.class, sh.name, nz)
				sp.Name = name
				out = append(out, cell{name: name, doc: encode(sp)})
			}
		}
	}
	return append(out, mpiAnchors()...)
}

// mpiAnchors are quick-tier cells of Tables 1, 3, 4 and 5 whose
// simulated seconds results/golden pins.
func mpiAnchors() []cell {
	mk := func(name, bench string, m scenario.Machine, level string, a *anchor) cell {
		sp := scenario.Spec{
			Name: name, Workload: "nas", Machine: m, SMM: scenario.SMMPlan{Level: level},
			Runs: 1, Seed: 1, Params: scenario.Params{Bench: bench, Class: "A"},
		}
		return cell{name: name, doc: encode(sp), anchor: a}
	}
	return []cell{
		mk("anchor-table1-BT-A-n1-rpn1-short", "BT", scenario.Machine{Nodes: 1, RanksPerNode: 1}, "short",
			nasAnchor("table1.json", 1, "one_rank_per_node", "smm1_s")),
		mk("anchor-table3-FT-A-n4-rpn1-long", "FT", scenario.Machine{Nodes: 4, RanksPerNode: 1}, "long",
			nasAnchor("table3.json", 4, "one_rank_per_node", "smm2_s")),
		mk("anchor-table4-EP-A-n4-rpn4-htt-short", "EP", scenario.Machine{Nodes: 4, RanksPerNode: 4, HTT: true}, "short",
			nasAnchor("table4.json", 4, "ht1", "smm1_s")),
		mk("anchor-table5-FT-A-n4-rpn4-htt-long", "FT", scenario.Machine{Nodes: 4, RanksPerNode: 4, HTT: true}, "long",
			nasAnchor("table5.json", 4, "ht1", "smm2_s")),
	}
}

// table2Anchor is the quick-tier Table 2 cell EP class A on 4 nodes
// without SMIs, whose simulated seconds results/golden pins.
func table2Anchor() cell {
	sp := scenario.Spec{Name: "anchor-table2-EP-A-n4-rpn1-none", Workload: "nas",
		Machine: scenario.Machine{Nodes: 4, RanksPerNode: 1}, SMM: scenario.SMMPlan{Level: "none"},
		Runs: 1, Seed: 1, Params: scenario.Params{Bench: "EP", Class: "A"}}
	return cell{name: sp.Name, doc: encode(sp), anchor: nasAnchor("table2.json", 4, "one_rank_per_node", "smm0_s")}
}

// threadedOSCells is the Figures 1–2 path: Convolve (both cache
// behaviours) and UnixBench on 1–8 logical CPUs, at SMI intervals of
// about 100, 500 and 1200 ms (each drawn within 5%; UnixBench, whose
// runs last about 2 simulated seconds, uses the first two so every run
// sees several SMIs), every third cell with OS jitter on top.
func threadedOSCells(seed int64) []cell {
	r := newRand(seed, 2)
	strata := []int{100, 500, 1200}
	interval := func(base int) int { return int(float64(base) * (0.95 + 0.1*r.Float64())) }
	var out []cell
	k := 0
	withJitter := func(sp *scenario.Spec) string {
		k++
		if k%3 != 0 {
			return ""
		}
		sp.Noise = []scenario.NoiseSource{jitterSource(r, 50)}
		return "+osjitter"
	}
	for _, cache := range []string{"friendly", "unfriendly"} {
		for _, cpus := range []int{1, 2, 4, 6, 8} {
			for si, st := range strata {
				sp := scenario.Spec{
					Workload: "convolve",
					Machine:  scenario.Machine{CPUs: cpus},
					SMM:      scenario.SMMPlan{IntervalMS: interval(st)},
					Seed:     cellSeed(r),
					Params:   scenario.Params{Cache: cache},
				}
				name := fmt.Sprintf("convolve-%s-cpus%d-s%d%s", cache, cpus, si, withJitter(&sp))
				sp.Name = name
				out = append(out, cell{name: name, doc: encode(sp)})
			}
		}
	}
	for _, cpus := range []int{1, 2, 4, 8} {
		for si, st := range strata[:2] {
			sp := scenario.Spec{
				Workload: "unixbench",
				Machine:  scenario.Machine{CPUs: cpus},
				SMM:      scenario.SMMPlan{Level: "long", IntervalMS: interval(st)},
				Seed:     cellSeed(r),
				Params:   scenario.Params{DurationS: 0.25},
			}
			name := fmt.Sprintf("unixbench-cpus%d-s%d%s", cpus, si, withJitter(&sp))
			sp.Name = name
			out = append(out, cell{name: name, doc: encode(sp)})
		}
	}
	return append(out, threadedOSAnchors()...)
}

// threadedOSAnchors are quick-tier Figure 1 and Figure 2 points.
func threadedOSAnchors() []cell {
	conv := func(name, cache string, cpus, iv int, a *anchor) cell {
		sp := scenario.Spec{
			Name: name, Workload: "convolve", Machine: scenario.Machine{CPUs: cpus},
			SMM: scenario.SMMPlan{IntervalMS: iv}, Runs: 1, Seed: 1, Params: scenario.Params{Cache: cache},
		}
		return cell{name: name, doc: encode(sp), anchor: a}
	}
	ub := scenario.Spec{
		Name: "anchor-figure2-cpus1-100ms", Workload: "unixbench", Machine: scenario.Machine{CPUs: 1},
		SMM: scenario.SMMPlan{Level: "long", IntervalMS: 100},
		// The Figure 2 sweep seeds each point with
		// parsweep.Seed(1, cpus, interval, iteration).
		Seed: 2162489283166186778, Params: scenario.Params{DurationS: 2},
	}
	return []cell{
		conv("anchor-figure1-unfriendly-cpus4-400ms", "unfriendly", 4, 400, fig1Anchor("CacheUnfriendly", 4, 400)),
		conv("anchor-figure1-friendly-cpus8-1500ms", "friendly", 8, 1500, fig1Anchor("CacheFriendly", 8, 1500)),
		{name: ub.Name, doc: encode(ub), anchor: fig2Anchor(1, 100, 0)},
	}
}

// traceReportCells are cells run with a Chrome trace sink attached and
// fed through the report pipeline: NAS cells with one rank per node
// under each noise family, and short UnixBench runs. These are the
// shapes on which report.Check holds; traces with several threads on
// one node's CPUs (NAS with 4 ranks per node, Convolve) fail it with
// unmatched preempt edges, a report-pipeline defect (see README.md).
// Every trace stays near 100 KB or below: with larger ones the heap
// peak depends more on where garbage collections fall.
func traceReportCells(seed int64) []cell {
	r := newRand(seed, 3)
	var out []cell
	add := func(name string, sp scenario.Spec) {
		sp.Name = name
		out = append(out, cell{name: name, doc: encode(sp)})
	}
	for _, nz := range []string{"none", "smm-long", "osjitter", "smm-long+osjitter"} {
		for _, b := range []struct{ bench, class string }{{"FT", "S"}, {"EP", "A"}, {"MG", "S"}} {
			// EP class A simulates several seconds; a longer jitter
			// period keeps its trace as small as the others.
			period := 100.0
			if b.bench == "EP" {
				period = 400
			}
			sp := scenario.Spec{Workload: "nas", Machine: scenario.Machine{Nodes: 4, RanksPerNode: 1},
				Seed: cellSeed(r), Params: scenario.Params{Bench: b.bench, Class: b.class}}
			switch nz {
			case "none":
				sp.SMM.Level = "none"
			case "smm-long":
				sp.SMM.Level = "long"
			case "osjitter":
				sp.Noise = []scenario.NoiseSource{jitterSource(r, period)}
			case "smm-long+osjitter":
				sp.Noise = []scenario.NoiseSource{{Family: scenario.NoiseSMM, Level: "long"}, jitterSource(r, period)}
			}
			add(fmt.Sprintf("%s-%s-n4-rpn1-%s", b.bench, b.class, nz), sp)
		}
	}
	for _, cpus := range []int{2, 4} {
		add(fmt.Sprintf("unixbench-cpus%d", cpus), scenario.Spec{
			Workload: "unixbench", Machine: scenario.Machine{CPUs: cpus},
			SMM:  scenario.SMMPlan{Level: "long", IntervalMS: 10 * (30 + r.IntN(60))},
			Seed: cellSeed(r), Params: scenario.Params{DurationS: 0.005},
		})
	}
	// Tracing must not change a result: the traced Table 2 anchor still
	// matches its golden value.
	return append(out, table2Anchor())
}

// inputDigest fingerprints a workload's generated inputs, so two runs
// can be shown to have measured the same thing.
func inputDigest(docs [][]byte) string {
	h := sha256.New()
	for _, d := range docs {
		h.Write(d)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digest is the output fingerprint compared across runs and against the
// committed digests: SHA-256 of the compacted measurement JSON, so
// indentation differences between the CLI and HTTP paths do not count.
func digest(measurement []byte) (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, measurement); err != nil {
		return "", fmt.Errorf("measurement is not JSON: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])[:16], nil
}
