package main

import (
	"fmt"
	"math"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/yield"
)

// predictTol is the relative agreement required between a served value and
// Model.PredictPoint on the served envelope. The server's compiled
// predictor sums the same terms in another order, so the two differ by
// rounding only.
const predictTol = 1e-12

// checkPredict compares a served value at y with Model.PredictPoint. The
// tolerance scales with Σ|cᵢ·gᵢ(y)|, the magnitude rounding acts on, so a
// value that happens to cancel to near zero is not held to an absolute
// 1e-12.
func checkPredict(m *core.Model, b *basis.Basis, y []float64, got float64) error {
	want, scale := 0.0, 0.0
	for i, idx := range m.Support {
		t := m.Coef[i] * b.Eval(idx, y)
		want += t
		scale += math.Abs(t)
	}
	if math.IsNaN(got) || math.Abs(got-want) > predictTol*math.Max(scale, math.Abs(want)) {
		return fmt.Errorf("served value %.17g, PredictPoint %.17g", got, want)
	}
	return nil
}

// checkYield compares a served yield estimate with a direct
// yield.Analyzer run over the same model, seed, sample count and spec.
// Both count passing samples of one seeded stream, so they must be equal.
func checkYield(m *core.Model, b *basis.Basis, seed int64, n int, low, got float64) error {
	want, err := directYield(m, b, seed, n, low)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("served yield %.17g, direct analyzer %.17g", got, want)
	}
	return nil
}

// directYield runs the yield analysis in-process, as the server's handler
// does for a request with only a low spec limit.
func directYield(m *core.Model, b *basis.Basis, seed int64, n int, low float64) (float64, error) {
	an, err := yield.NewAnalyzer(b, map[string]*core.Model{"m": m})
	if err != nil {
		return 0, err
	}
	res, err := an.Yield(rng.New(seed), n, map[string]yield.Spec{"m": {Low: low, High: math.Inf(1)}})
	if err != nil {
		return 0, err
	}
	return res.Yield, nil
}

// relErr is RMS(got − truth) / RMS(truth).
func relErr(got, truth []float64) float64 {
	num, den := 0.0, 0.0
	for i := range truth {
		d := got[i] - truth[i]
		num += d * d
		den += truth[i] * truth[i]
	}
	return math.Sqrt(num / den)
}
