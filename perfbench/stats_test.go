package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileInterpolates(t *testing.T) {
	xs := seq(5) // 1..5
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.375, 2.5}} {
		got, err := percentile(xs, c.q)
		if err != nil || got != c.want {
			t.Errorf("percentile(1..5, %g) = %g, %v; want %g", c.q, got, err, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile reordered its input")
	}
}

// A tail percentile is reported only with at least ten samples above it.
func TestPercentileTenBeyondRule(t *testing.T) {
	if _, err := percentile(seq(902), 0.99); err != nil {
		t.Errorf("p99 of 902 samples (10 beyond): %v", err)
	}
	if _, err := percentile(seq(901), 0.99); err == nil {
		t.Errorf("p99 of 901 samples (9 beyond) was reported")
	}
	if _, err := percentile(seq(92), 0.9); err != nil {
		t.Errorf("p90 of 92 samples (10 beyond): %v", err)
	}
	if _, err := percentile(seq(91), 0.9); err == nil {
		t.Errorf("p90 of 91 samples (9 beyond) was reported")
	}
	if _, err := percentile(seq(5), 1); err == nil {
		t.Errorf("the maximum of 5 samples was reported as a tail percentile")
	}
	// The median has no tail rule.
	if got, err := percentile(seq(3), 0.5); err != nil || got != 2 {
		t.Errorf("median of 3 samples = %g, %v", got, err)
	}
}

func TestPercentileRejectsBadInput(t *testing.T) {
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples succeeded")
	}
	if _, err := percentile(seq(3), 1.5); err == nil {
		t.Error("quantile 1.5 accepted")
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Error("median or mean of no samples is not NaN")
	}
}
