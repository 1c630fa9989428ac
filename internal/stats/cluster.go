package stats

import (
	"math"
	"sort"

	"smistudy/internal/metrics"
)

// This file holds the distance and clustering primitives behind the
// report pipeline's cross-run similarity analysis: featurized sweep
// cells are z-scored, clustered bottom-up, and the resulting partition
// is compared against the partitions each scenario dimension induces —
// a dimension whose partition agrees with the clusters is one the
// system actually responds to; one that cross-cuts them is noise.

// Euclid reports the Euclidean distance between two equal-length
// vectors.
func Euclid(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// ZScoreColumns normalizes each column of the row-major matrix in
// place to zero mean and unit variance; constant columns become all
// zeros (they carry no distance information either way).
func ZScoreColumns(rows [][]float64) {
	if len(rows) == 0 {
		return
	}
	cols := len(rows[0])
	for c := 0; c < cols; c++ {
		var s metrics.Stream
		for _, r := range rows {
			s.Add(r[c])
		}
		mean, sd := s.Mean(), s.StdDev()
		for _, r := range rows {
			if sd == 0 {
				r[c] = 0
				continue
			}
			r[c] = (r[c] - mean) / sd
		}
	}
}

// PairwiseDistances builds the symmetric Euclidean distance matrix of
// the given row vectors.
func PairwiseDistances(rows [][]float64) [][]float64 {
	n := len(rows)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := Euclid(rows[i], rows[j])
			d[i][j], d[j][i] = v, v
		}
	}
	return d
}

// MedianPositive reports the median of the strictly positive entries
// in the upper triangle of a distance matrix — the natural scale for a
// clustering threshold. Zero when every pair coincides.
func MedianPositive(d [][]float64) float64 {
	var vals []float64
	for i := range d {
		for j := i + 1; j < len(d); j++ {
			if d[i][j] > 0 {
				vals = append(vals, d[i][j])
			}
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[len(vals)/2]
}

// ClusterAgglomerative merges points bottom-up with single linkage
// until the closest pair of clusters is farther than threshold, and
// returns a cluster index per point (indices are dense, ordered by
// first member). Deterministic: ties break toward the lowest pair of
// point indices.
func ClusterAgglomerative(d [][]float64, threshold float64) []int {
	n := len(d)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i
	}
	for {
		// Closest pair of distinct clusters under single linkage.
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if assign[i] == assign[j] {
					continue
				}
				if d[i][j] < best {
					best, bi, bj = d[i][j], assign[i], assign[j]
				}
			}
		}
		if bi < 0 || best > threshold {
			break
		}
		// Merge the higher index into the lower.
		lo, hi := bi, bj
		if lo > hi {
			lo, hi = hi, lo
		}
		for k := range assign {
			if assign[k] == hi {
				assign[k] = lo
			}
		}
	}
	// Densify cluster ids in order of first appearance.
	next := 0
	remap := map[int]int{}
	for i, a := range assign {
		if _, ok := remap[a]; !ok {
			remap[a] = next
			next++
		}
		assign[i] = remap[assign[i]]
	}
	return assign
}

// RandIndex reports the agreement between two partitions of the same
// point set as the fraction of point pairs both partitions classify the
// same way (together in both, or apart in both). 1 means identical
// partitions; independent partitions score near the chance level. One
// point (no pairs) scores 1.
func RandIndex(a, b []int) float64 {
	n := len(a)
	if n < 2 {
		return 1
	}
	agree, pairs := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs++
			if (a[i] == a[j]) == (b[i] == b[j]) {
				agree++
			}
		}
	}
	return float64(agree) / float64(pairs)
}

// PartitionOf converts arbitrary string labels into a dense partition
// vector (cluster ids ordered by first appearance), so categorical
// scenario-dimension values can be compared with RandIndex.
func PartitionOf(labels []string) []int {
	ids := map[string]int{}
	out := make([]int, len(labels))
	for i, l := range labels {
		id, ok := ids[l]
		if !ok {
			id = len(ids)
			ids[l] = id
		}
		out[i] = id
	}
	return out
}
