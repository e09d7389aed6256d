package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// The same seed gives the same inputs, bit for bit; another seed does not.
func TestGenerateIsDeterministic(t *testing.T) {
	a, b := generate(7, 2, 3), generate(7, 2, 3)
	if a.checksum != b.checksum {
		t.Fatalf("same seed, checksums %s and %s", a.checksum, b.checksum)
	}
	if !reflect.DeepEqual(a.train, b.train) || !reflect.DeepEqual(a.pool, b.pool) || !reflect.DeepEqual(a.truth, b.truth) {
		t.Fatal("same seed, different inputs")
	}
	if c := generate(8, 2, 3); c.checksum == a.checksum {
		t.Fatal("seeds 7 and 8 gave the same checksum")
	}
}

// Each purpose draws from its own stream: more training sets leave the
// held-out set, the predict pool and the truth unchanged.
func TestGenerateStreamsAreIndependent(t *testing.T) {
	a, b := generate(7, 1, 2), generate(7, 4, 5)
	if !reflect.DeepEqual(a.pool, b.pool) || !reflect.DeepEqual(a.heldOut, b.heldOut) || !reflect.DeepEqual(a.truth, b.truth) {
		t.Fatal("the number of training sets moved another input stream")
	}
	if !reflect.DeepEqual(a.train[0], b.train[0]) || !reflect.DeepEqual(a.yieldSeeds, b.yieldSeeds[:2]) {
		t.Fatal("a longer run does not begin with the shorter run's inputs")
	}
}

// The truth has truthTerms terms and unit RMS under the Gaussian measure.
func TestSparseTruthHasUnitRMS(t *testing.T) {
	d := generate(3, 0, 0)
	if len(d.truth.Support) != truthTerms {
		t.Fatalf("truth has %d terms, want %d", len(d.truth.Support), truthTerms)
	}
	ss := 0.0
	for _, c := range d.truth.Coef {
		ss += c * c
	}
	if math.Abs(ss-1) > 1e-12 {
		t.Fatalf("Σc² = %g, want 1", ss)
	}
}

func TestMixedScheduleIsDeterministic(t *testing.T) {
	const length = 15 * time.Second
	a, b := mixedSchedule(5, length), mixedSchedule(5, length)
	if scheduleSum(a) != scheduleSum(b) {
		t.Fatal("same seed, different schedules")
	}
	if scheduleSum(mixedSchedule(6, length)) == scheduleSum(a) {
		t.Fatal("seeds 5 and 6 gave the same schedule")
	}
	counts := map[opKind]int{}
	for i, op := range a {
		if i > 0 && op.due < a[i-1].due {
			t.Fatalf("op %d due %v before op %d due %v", i, op.due, i-1, a[i-1].due)
		}
		counts[op.kind]++
	}
	yields, fits := mixedCounts(length)
	if counts[opYield] != yields || counts[opFit] != fits || counts[opMetrics] != 15 {
		t.Fatalf("schedule has %d yields, %d fits, %d scrapes; want %d, %d, 15",
			counts[opYield], counts[opFit], counts[opMetrics], yields, fits)
	}
	// Poisson arrivals at 250/s: 3750 expected, sd ≈ 61.
	if n := counts[opPredict]; n < 3400 || n > 4100 {
		t.Fatalf("%d predicts in 15 s, want about 3750", n)
	}
}
