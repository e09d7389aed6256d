package main

import (
	"context"
	"math"
	"testing"
	"time"
)

// A served value that differs from Model.PredictPoint by more than
// rounding is caught; rounding-level differences are not.
func TestCheckPredictCatchesCorruptedValue(t *testing.T) {
	d := generate(11, 0, 0)
	for i, y := range d.heldOut[:50] {
		want := d.heldTruth[i]
		if err := checkPredict(d.truth, d.basis, y, want); err != nil {
			t.Fatalf("point %d: exact value refused: %v", i, err)
		}
		if err := checkPredict(d.truth, d.basis, y, want*(1+1e-15)); err != nil {
			t.Fatalf("point %d: rounding-level difference refused: %v", i, err)
		}
		for _, bad := range []float64{want * (1 + 1e-9), want + 1e-6, -want, math.NaN()} {
			if checkPredict(d.truth, d.basis, y, bad) == nil {
				t.Fatalf("point %d: corrupted value %.17g accepted (want %.17g)", i, bad, want)
			}
		}
	}
}

// A served yield must equal a direct analyzer run exactly: one sample
// flipped is caught.
func TestCheckYieldCatchesCorruptedValue(t *testing.T) {
	d := generate(11, 0, 1)
	seed := d.yieldSeeds[0]
	want, err := directYield(d.truth, d.basis, seed, 2000, yieldLow)
	if err != nil {
		t.Fatal(err)
	}
	if want <= 0 || want >= 1 {
		t.Fatalf("yield %g: the spec should cut the distribution", want)
	}
	if err := checkYield(d.truth, d.basis, seed, 2000, yieldLow, want); err != nil {
		t.Fatalf("exact yield refused: %v", err)
	}
	if checkYield(d.truth, d.basis, seed, 2000, yieldLow, want+1.0/2000) == nil {
		t.Fatal("yield off by one sample accepted")
	}
	if checkYield(d.truth, d.basis, seed+1, 2000, yieldLow, want) == nil {
		t.Fatal("yield of another seed accepted")
	}
}

func TestRelErr(t *testing.T) {
	truth := []float64{3, -4}
	if got := relErr(truth, truth); got != 0 {
		t.Fatalf("relErr of the truth = %g", got)
	}
	if got := relErr([]float64{6, -8}, truth); got != 1 {
		t.Fatalf("relErr of twice the truth = %g, want 1", got)
	}
}

// Self time is a span's duration minus what its children cover, counting
// overlapping children once.
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Trace: 1, Name: "op", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Trace: 1, Name: "a", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Trace: 1, Name: "b", Start: 3 * ms, End: 6 * ms},
		{ID: 4, Parent: 1, Trace: 1, Name: "c", Start: 8 * ms, End: 12 * ms},
	}
	self := selfTimes(spans)
	if want := 10*ms - 5*ms - 2*ms; self[0] != want {
		t.Fatalf("op self time %v, want %v", self[0], want)
	}
	if self[1] != 3*ms {
		t.Fatalf("leaf self time %v, want its duration", self[1])
	}
}

// verify, run over real answers from the in-process server, counts each
// corrupted answer as wrong and nothing else.
func TestVerifyCountsCorruptedAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model through the server")
	}
	ctx := context.Background()
	b := &bench{opt: options{workload: "fit-cv", seed: 1, seconds: 1}, w: workloads["fit-cv"], nproc: 2,
		data: generate(1, 1, 2), tag: "t"}
	st, err := openStack(t.TempDir(), b.nproc)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	b.st = st
	if rec := b.fitOp(ctx, servedName, 0, "omp"); rec.err != nil {
		t.Fatal(rec.err)
	}
	ph := &phase{}
	b.closedPredicts(ctx, ph, 0, 20)
	b.closedYields(ctx, ph, 1, 1)
	failed, wrong, err := b.verify(ctx, ph)
	if err != nil || failed != 0 || wrong != 0 {
		t.Fatalf("clean answers: failed=%d wrong=%d err=%v", failed, wrong, err)
	}
	ph.predicts[3].value *= 1 + 1e-9
	ph.yields[0].value += 1.0 / yieldN
	failed, wrong, err = b.verify(ctx, ph)
	if err != nil || failed != 0 || wrong != 2 {
		t.Fatalf("two corrupted answers: failed=%d wrong=%d err=%v", failed, wrong, err)
	}
}
