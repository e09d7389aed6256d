package core

import (
	"testing"

	"repro/internal/basis"
	"repro/internal/rng"
)

// The serving hot path is batched model evaluation: rsmd's predict endpoint
// fans a batch across workers that reuse per-worker Hermite scratch tables
// restricted to the support's variables. These benchmarks pin the baseline
// for later perf PRs: the naive single-point loop (PredictPoint re-derives
// every Hermite value per term) against PredictBatch, serial and at
// GOMAXPROCS workers.
//
// Two support shapes matter. "scattered" draws the support uniformly over
// the dictionary, so its terms touch most variables — the worst case for
// scratch reuse. "concentrated" confines the support to a few dominant
// variables, which is what the paper's fitted models actually look like
// (a handful of devices dominate each metric) and where the shared table
// pays off.
//
// Workload: quadratic basis over 50 variables (M = 1326), 20 non-zero
// coefficients, 1000-point batch — the shape of a busy predict request.

const (
	benchDim   = 50
	benchNNZ   = 20
	benchBatch = 1000
)

// concentratedModel builds a model whose support only references the first
// few variables.
func concentratedModel(dim, maxVar, nnz int, seed int64) (*Model, *basis.Basis) {
	b := basis.Quadratic(dim)
	src := rng.New(seed)
	var eligible []int
	for idx, t := range b.Terms {
		ok := true
		for _, vp := range t {
			if vp.Var >= maxVar {
				ok = false
				break
			}
		}
		if ok && t.Degree() > 0 {
			eligible = append(eligible, idx)
		}
	}
	perm := src.Perm(len(eligible))[:nnz]
	support := make([]int, nnz)
	coef := make([]float64, nnz)
	for i, p := range perm {
		support[i] = eligible[p]
		coef[i] = src.Norm()
	}
	return &Model{M: b.Size(), Support: support, Coef: coef}, b
}

func benchPoints(dim, n int, seed int64) [][]float64 {
	src := rng.New(seed)
	points := make([][]float64, n)
	for k := range points {
		points[k] = src.NormVec(nil, dim)
	}
	return points
}

// Fit-path benchmarks pin the solver engine at paper scale: a quadratic
// Hermite dictionary over 99 variables (M = 5050) against K = 500 Monte
// Carlo samples — the underdetermined regime of eq. (11) where the Gᵀ·res
// correlation sweep dominates every path iteration. The fixed sparsity
// budget keeps one benchmark iteration at λ sweeps, so ns/op tracks the
// engine's sweep cost across PRs.

const (
	fitBenchDim    = 99 // quadratic dictionary: M = 5050
	fitBenchK      = 500
	fitBenchLambda = 20
)

// fitBenchProblem builds the K×M benchmark problem once per process.
func fitBenchProblem(b *testing.B) (basis.Design, []float64) {
	b.Helper()
	dict := basis.Quadratic(fitBenchDim)
	src := rng.New(77)
	points := make([][]float64, fitBenchK)
	for k := range points {
		points[k] = src.NormVec(nil, fitBenchDim)
	}
	// Sparse ground truth over 12 scattered bases plus mild noise.
	support := src.Perm(dict.Size())[:12]
	coef := src.NormVec(nil, 12)
	d := basis.NewDenseDesign(dict, points)
	truth := &Model{M: dict.Size(), Support: support, Coef: coef}
	f := truth.Predict(d)
	for i := range f {
		f[i] += 0.01 * src.Norm()
	}
	return d, f
}

func benchFitPath(b *testing.B, fitter PathFitter) {
	d, f := fitBenchProblem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fitter.FitPath(d, f, fitBenchLambda); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitPathOMP(b *testing.B)  { benchFitPath(b, &OMP{}) }
func BenchmarkFitPathLAR(b *testing.B)  { benchFitPath(b, &LAR{}) }
func BenchmarkFitPathSTAR(b *testing.B) { benchFitPath(b, &STAR{}) }

// BenchmarkCrossValidate times one served fit job's solver work at the
// repository benchmark's fit-cv shape: 5-fold cross-validation plus the
// final refit, λ ≤ 30, on the same K×M problem. B/op pins the ≤ 25 MB CV
// allocation target.
func BenchmarkCrossValidate(b *testing.B) {
	d, f := fitBenchProblem(b)
	for _, c := range []struct {
		name   string
		fitter PathFitter
	}{{"omp", &OMP{}}, {"lar", &LAR{}}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CrossValidate(c.fitter, d, f, 5, 30); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCorrelateSweep isolates the engine's Gᵀ·x kernel on the same
// K×M problem: the serial column-major sweep against the goroutine-sharded
// parallel one (GOMAXPROCS workers). On a single-core host the two coincide;
// the parallel gain shows on ≥2 cores.
func BenchmarkCorrelateSweep(b *testing.B) {
	d, f := fitBenchProblem(b)
	cm := basis.NewColMajor(d)
	dst := make([]float64, cm.Cols())
	b.Run("serial", func(b *testing.B) {
		c := newCorrelator(cm, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Apply(dst, f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		c := newCorrelator(cm, ResolveFitWorkers(0))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Apply(dst, f); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPredictHotPath(b *testing.B) {
	scattered, dict, _ := randomModelAndPoints(benchDim, benchNNZ, 1, 42)
	concentrated, _ := concentratedModel(benchDim, 8, benchNNZ, 42)
	points := benchPoints(benchDim, benchBatch, 43)
	out := make([]float64, benchBatch)

	shapes := []struct {
		name  string
		model *Model
	}{
		{"scattered", scattered},
		{"concentrated", concentrated},
	}
	for _, shape := range shapes {
		m := shape.model
		b.Run("single-point/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k, y := range points {
					out[k] = m.PredictPoint(dict, y)
				}
			}
		})
		b.Run("batch-serial/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.PredictBatch(dict, out, points, 1)
			}
		})
		b.Run("batch-parallel/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.PredictBatch(dict, out, points, 0)
			}
		})
	}
}
