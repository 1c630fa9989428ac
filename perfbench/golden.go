package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"smistudy/internal/runner"
)

// anchor pins a cell's simulated value to results/golden: file names
// the golden document and find extracts the pinned value from it.
type anchor struct {
	file string
	what string
	find func(doc []byte) (float64, bool)
}

// want loads the anchor's pinned value from the golden directory.
func (a *anchor) want(goldenDir string) (float64, error) {
	data, err := os.ReadFile(filepath.Join(goldenDir, a.file))
	if err != nil {
		return 0, fmt.Errorf("golden: %w", err)
	}
	v, ok := a.find(data)
	if !ok {
		return 0, fmt.Errorf("golden: %s has no %s", a.file, a.what)
	}
	return v, nil
}

// value extracts the simulated quantity a golden file pins from a
// measurement: mean seconds for NAS and Convolve, the index score for
// UnixBench.
func value(m runner.Measurement) (float64, bool) {
	switch {
	case m.NAS != nil:
		return m.NAS.MeanTime.Seconds(), true
	case m.Convolve != nil:
		return m.Convolve.MeanTime.Seconds(), true
	case m.UnixBench != nil:
		return m.UnixBench.Score, true
	}
	return 0, false
}

// nasAnchor pins one SMM level of a Tables 1–5 row (class A): half is
// the row's column group ("one_rank_per_node", "four_ranks_per_node",
// "ht0", "ht1") and level its "smm<k>_s" field.
func nasAnchor(file string, nodes int, half, level string) *anchor {
	return &anchor{
		file: file,
		what: fmt.Sprintf("class A, %d nodes, %s.%s", nodes, half, level),
		find: func(doc []byte) (float64, bool) {
			var t struct {
				Rows []map[string]json.RawMessage `json:"rows"`
			}
			if json.Unmarshal(doc, &t) != nil {
				return 0, false
			}
			for _, row := range t.Rows {
				var class string
				var n int
				if json.Unmarshal(row["class"], &class) != nil || json.Unmarshal(row["nodes"], &n) != nil {
					continue
				}
				if class != "A" || n != nodes {
					continue
				}
				var cols map[string]float64
				if json.Unmarshal(row[half], &cols) != nil {
					return 0, false
				}
				v, ok := cols[level]
				return v, ok
			}
			return 0, false
		},
	}
}

// fig1Anchor pins a Figure 1 point's mean seconds.
func fig1Anchor(behavior string, cpus, intervalMS int) *anchor {
	return &anchor{
		file: "figure1.json",
		what: fmt.Sprintf("%s, %d CPUs, %d ms", behavior, cpus, intervalMS),
		find: func(doc []byte) (float64, bool) {
			var f struct {
				Points []struct {
					Behavior   string  `json:"behavior"`
					CPUs       int     `json:"cpus"`
					IntervalMS int     `json:"interval_ms"`
					Seconds    float64 `json:"seconds"`
				} `json:"points"`
			}
			if json.Unmarshal(doc, &f) != nil {
				return 0, false
			}
			for _, p := range f.Points {
				if p.Behavior == behavior && p.CPUs == cpus && p.IntervalMS == intervalMS {
					return p.Seconds, true
				}
			}
			return 0, false
		},
	}
}

// fig2Anchor pins a Figure 2 point's UnixBench score.
func fig2Anchor(cpus, intervalMS, iteration int) *anchor {
	return &anchor{
		file: "figure2.json",
		what: fmt.Sprintf("%d CPUs, %d ms, iteration %d", cpus, intervalMS, iteration),
		find: func(doc []byte) (float64, bool) {
			var f struct {
				Points []struct {
					CPUs       int     `json:"cpus"`
					IntervalMS int     `json:"interval_ms"`
					Iteration  int     `json:"iteration"`
					Score      float64 `json:"score"`
				} `json:"points"`
			}
			if json.Unmarshal(doc, &f) != nil {
				return 0, false
			}
			for _, p := range f.Points {
				if p.CPUs == cpus && p.IntervalMS == intervalMS && p.Iteration == iteration {
					return p.Score, true
				}
			}
			return 0, false
		},
	}
}

// committedDigests is perfbench/digests.json: for the default seed,
// each workload's per-cell output digest keyed by cell name.
type committedDigests map[string]map[string]string

func loadDigests(path string) (committedDigests, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("digests: %w", err)
	}
	var d committedDigests
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("digests: %s: %w", path, err)
	}
	return d, nil
}
