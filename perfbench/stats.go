package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail read from fewer is one slow op, not a percentile.
const minBeyond = 10

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. It fails when xs is empty or,
// for q > 0.5, when fewer than minBeyond samples lie strictly above the
// interpolation point: a p99 needs at least 902 samples. xs is not
// modified.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("quantile %g outside [0, 1]", q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if q > 0.5 {
		if beyond := n - 1 - lo; beyond < minBeyond {
			return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want ≥ %d", 100*q, n, beyond, minBeyond)
		}
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo]), nil
}

// median is the 0.5-quantile; it is NaN for no samples.
func median(xs []float64) float64 {
	v, err := percentile(xs, 0.5)
	if err != nil {
		return math.NaN()
	}
	return v
}

// durs converts durations to float64 in the given unit.
func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// mean is the arithmetic mean; it is NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
