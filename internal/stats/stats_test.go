package stats

import (
	"math"
	"testing"
)

func TestRelErr(t *testing.T) {
	if RelErr(110, 100) != 0.1 {
		t.Fatalf("RelErr(110,100) = %v", RelErr(110, 100))
	}
	if RelErr(90, 100) != 0.1 {
		t.Fatalf("RelErr(90,100) = %v", RelErr(90, 100))
	}
	if !math.IsNaN(RelErr(1, 0)) {
		t.Fatal("want NaN for zero expectation")
	}
}

func TestInversions(t *testing.T) {
	down := []float64{10, 8, 8.05, 6, 5}
	if n := Inversions(down, Decreasing, 0.01); n != 0 {
		t.Fatalf("within-slack wobble counted: %d", n)
	}
	if n := Inversions(down, Decreasing, 0); n != 1 {
		t.Fatalf("zero-slack wobble not counted: %d", n)
	}
	if n := Inversions(down, Increasing, 0); n != 3 {
		t.Fatalf("increasing inversions = %d", n)
	}
}

func TestMonotone(t *testing.T) {
	if !Monotone([]float64{1, 2, 1.99, 3, 4}, Increasing, 0.02) {
		t.Fatal("jittered increasing series rejected")
	}
	if Monotone([]float64{1, 2, 3, 2.5}, Increasing, 0.02) {
		t.Fatal("reversed endpoint accepted")
	}
	if Monotone([]float64{4, 1, 4, 1, 4.1}, Increasing, 0) {
		t.Fatal("scrambled middle accepted")
	}
	if !Monotone([]float64{5}, Increasing, 0) || !Monotone(nil, Decreasing, 0) {
		t.Fatal("degenerate series must pass")
	}
}

func TestSameSign(t *testing.T) {
	if !SameSign(10, 3, 2) || SameSign(10, -3, 2) || !SameSign(0.5, -0.5, 2) {
		t.Fatal("SameSign misjudged")
	}
}
