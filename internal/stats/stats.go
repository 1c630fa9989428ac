// Package stats provides the judgments the fidelity harness makes over
// per-cell summaries (metrics.Stream across repeated seeds): relative
// error against an expectation, and the ordering/monotonicity
// predicates the paper's qualitative claims reduce to (slowdown grows
// with SMI frequency, impact grows with node count, scores grow with
// SMI interval).
//
// Hunold & Carpen-Amarie's point — benchmark claims need explicit
// acceptance criteria over repeated runs, not single-shot numbers — is
// the reason this package exists as a seam of its own: every judgment
// smivalidate makes is over a repeated-run summary, never over one raw
// value.
package stats

import "math"

// RelErr reports |got−want| / |want|; NaN when want is zero.
func RelErr(got, want float64) float64 {
	if want == 0 {
		return math.NaN()
	}
	return math.Abs(got-want) / math.Abs(want)
}

// Direction selects the sense of an ordering predicate.
type Direction int

// The two ordering senses.
const (
	Increasing Direction = +1
	Decreasing Direction = -1
)

// Inversions counts adjacent pairs of xs that move against dir by more
// than slackRel (relative to the earlier point). A clean monotone series
// scores zero; slack absorbs measurement jitter without letting a real
// trend reversal pass.
func Inversions(xs []float64, dir Direction, slackRel float64) int {
	n := 0
	for i := 1; i < len(xs); i++ {
		prev, cur := xs[i-1], xs[i]
		slack := slackRel * math.Abs(prev)
		switch dir {
		case Increasing:
			if cur < prev-slack {
				n++
			}
		case Decreasing:
			if cur > prev+slack {
				n++
			}
		}
	}
	return n
}

// Monotone reports whether xs moves in dir end to end, tolerating
// per-step jitter up to slackRel but requiring the endpoints to respect
// the direction strictly — and requiring the series to end at its
// extreme (within slack): a curve that climbs and then falls off its
// peak is not a reproduction of a monotone trend.
func Monotone(xs []float64, dir Direction, slackRel float64) bool {
	if len(xs) < 2 {
		return true
	}
	first, last := xs[0], xs[len(xs)-1]
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	switch dir {
	case Increasing:
		if last <= first || last < hi-slackRel*math.Abs(hi) {
			return false
		}
	case Decreasing:
		if last >= first || last > lo+slackRel*math.Abs(lo) {
			return false
		}
	}
	// Allow at most a quarter of the steps to invert within slack — a
	// figure with the right endpoints but a scrambled middle is not a
	// reproduction of a monotone curve.
	return Inversions(xs, dir, slackRel) <= len(xs)/4
}

// SameSign reports whether two percentage effects agree in direction,
// treating anything within ±eps of zero on both sides as agreement
// (near-zero cells have no meaningful direction).
func SameSign(a, b, eps float64) bool {
	if math.Abs(a) < eps && math.Abs(b) < eps {
		return true
	}
	return a*b > 0
}
