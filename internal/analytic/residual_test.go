package analytic

import (
	"math"
	"testing"
)

func TestResidualRatioAndLogError(t *testing.T) {
	r := Residual{Simulated: 12, Predicted: 10}
	if r.Ratio() != 1.2 {
		t.Fatalf("ratio = %v", r.Ratio())
	}
	over := Residual{Simulated: 12, Predicted: 10}.LogError()
	under := Residual{Simulated: 10, Predicted: 12}.LogError()
	if math.Abs(over-under) > 1e-12 {
		t.Fatalf("log error asymmetric: %v vs %v", over, under)
	}
	if !math.IsNaN(Residual{Simulated: 1, Predicted: 0}.Ratio()) {
		t.Fatal("zero prediction must yield NaN ratio")
	}
	if !math.IsInf(Residual{Simulated: -1, Predicted: 1}.LogError(), 1) {
		t.Fatal("negative ratio must yield infinite log error")
	}
}

func TestResidualWithinBoundary(t *testing.T) {
	// Exactly at the band edge passes in both directions.
	if !(Residual{Simulated: 1.2, Predicted: 1}).Within(0.2) {
		t.Fatal("upper boundary must pass")
	}
	if !(Residual{Simulated: 1, Predicted: 1.2}).Within(0.2) {
		t.Fatal("lower boundary must pass")
	}
	if (Residual{Simulated: 1.21, Predicted: 1}).Within(0.2) {
		t.Fatal("beyond the band must fail")
	}
	if (Residual{Simulated: 1, Predicted: 1}).Within(-0.1) {
		t.Fatal("negative tolerance must fail")
	}
}

func TestResidualSetHelpers(t *testing.T) {
	rs := []Residual{
		{Simulated: 1.0, Predicted: 1.0},
		{Simulated: 1.1, Predicted: 1.0},
		{Simulated: 2, Predicted: 1},
	}
	if got := MaxLogError(rs); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Fatalf("max log error = %v", got)
	}
	if MaxLogError(nil) != 0 {
		t.Fatal("empty set must score zero")
	}
}
