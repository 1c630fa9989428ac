package analytic

import "math"

// Residual is one model-vs-simulation comparison: the simulator's
// measured value next to the closed-form prediction for the same
// configuration. The fidelity harness gates on these — a physics change
// that moves the simulator away from the theory trips the residual
// check even when no paper cell covers the configuration.
type Residual struct {
	Simulated float64
	Predicted float64
}

// Ratio reports simulated/predicted; NaN when the prediction is zero.
func (r Residual) Ratio() float64 {
	if r.Predicted == 0 {
		return math.NaN()
	}
	return r.Simulated / r.Predicted
}

// LogError reports |ln(simulated/predicted)| — the symmetric
// multiplicative error, so over- and under-prediction by the same
// factor score identically.
func (r Residual) LogError() float64 {
	ratio := r.Ratio()
	if math.IsNaN(ratio) || ratio <= 0 {
		return math.Inf(1)
	}
	return math.Abs(math.Log(ratio))
}

// Within reports whether the residual's ratio lies inside the
// symmetric multiplicative band [1/(1+tol), 1+tol]. tol = 0.2 accepts
// ratios in [0.833, 1.2]; the boundary itself passes.
func (r Residual) Within(tol float64) bool {
	if tol < 0 {
		return false
	}
	return r.LogError() <= math.Log(1+tol)
}

// MaxLogError reports the largest LogError over the set (zero when
// empty).
func MaxLogError(rs []Residual) float64 {
	max := 0.0
	for _, r := range rs {
		if le := r.LogError(); le > max {
			max = le
		}
	}
	return max
}
