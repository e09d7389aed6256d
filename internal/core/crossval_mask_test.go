package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/basis"
	"repro/internal/stats"
)

// subsetCrossValidate is the cross-validation loop as it ran before folds
// became row masks: each fold fits a Subset view with its gathered
// response, and the held-out rows are scored through a second Subset view.
// It is the reference TestCrossValidateMaskedFoldsMatchSubsetFolds holds
// the masked folds to, bit for bit.
func subsetCrossValidate(ctx context.Context, fitter PathFitter, d basis.Design, f []float64, folds, maxLambda int) (*CVResult, error) {
	k := d.Rows()
	gather := func(rows []int) []float64 {
		out := make([]float64, len(rows))
		for i, r := range rows {
			out[i] = f[r]
		}
		return out
	}
	result := &CVResult{ErrCurve: make([]float64, maxLambda), FoldErr: make([][]float64, folds)}
	eng := NewEngine(FitWorkersFromContext(ctx))
	for q := 0; q < folds; q++ {
		var trainRows, testRows []int
		for i := 0; i < k; i++ {
			if i%folds == q {
				testRows = append(testRows, i)
			} else {
				trainRows = append(trainRows, i)
			}
		}
		foldCtx := WithCheckpointPlan(WithResumeCheckpoint(ctx, nil), nil)
		path, err := fitPathWithEngine(foldCtx, eng, fitter, Subset(d, trainRows), gather(trainRows), maxLambda)
		if err != nil {
			return nil, err
		}
		preds := make([][]float64, path.Len())
		for i := range preds {
			preds[i] = make([]float64, len(testRows))
		}
		Subset(d, testRows).VisitRows(func(k int, row []float64) {
			for mi, model := range path.Models {
				s := 0.0
				for i, idx := range model.Support {
					s += model.Coef[i] * row[idx]
				}
				preds[mi][k] = s
			}
		})
		testF := gather(testRows)
		result.FoldErr[q] = make([]float64, maxLambda)
		for lam := 1; lam <= maxLambda; lam++ {
			idx := min(lam-1, path.Len()-1)
			result.FoldErr[q][lam-1] = stats.RelativeRMSError(preds[idx], testF)
			result.ErrCurve[lam-1] += result.FoldErr[q][lam-1]
		}
	}
	for i := range result.ErrCurve {
		result.ErrCurve[i] /= float64(folds)
		if i == 0 || result.ErrCurve[i] < result.ErrCurve[result.BestLambda-1] {
			result.BestLambda = i + 1
		}
	}
	path, err := fitPathWithEngine(ctx, eng, fitter, d, f, maxLambda)
	if err != nil {
		return nil, err
	}
	result.Model = path.Models[min(result.BestLambda, path.Len())-1]
	return result, nil
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCrossValidateMaskedFoldsMatchSubsetFolds holds the row-masked folds to
// the Subset-fold reference for every solver on every design kind. The
// small problem (K·M below correlateParallelMin) keeps each design's own
// MulTransVec, so the lazy and generated designs take their streaming,
// zero-skipping path; the larger one is materialized column-major once and
// shared by the folds (its folds are large enough that the reference
// materializes each Subset view too, so both sides sweep in the same
// order). K is not a multiple of the fold count, and the small
// problem's maxLambda exceeds every fold's training rows, so STAR's 1/n
// step, StOMP's √n threshold, CD's 1/n scaling and the λ ≤ n clamp all
// differ from their K forms.
func TestCrossValidateMaskedFoldsMatchSubsetFolds(t *testing.T) {
	problems := []struct {
		name             string
		dim, k           int
		folds, maxLambda int
	}{
		{"small", 12, 47, 5, 45},     // M = 91, K·M = 4277, 37–38 training rows
		{"colmajor", 20, 203, 4, 24}, // M = 231, n·M ≥ 152·231 = 35112
	}
	solvers := []PathFitter{
		&OMP{},
		&LAR{},
		&LAR{Lasso: true, Refit: true},
		&STAR{},
		&StOMP{},
		&CD{Refit: true, L2: 0.5, GridPerDecade: 10, MaxSweeps: 100},
	}
	for _, p := range problems {
		r := rand.New(rand.NewSource(int64(p.k)))
		b := basis.Quadratic(p.dim)
		pts := make([][]float64, p.k)
		for i := range pts {
			pts[i] = make([]float64, p.dim)
			for j := range pts[i] {
				pts[i][j] = r.NormFloat64()
			}
		}
		truth := &Model{M: b.Size(), Support: []int{1, 7, p.dim + 3, b.Size() - 2}, Coef: []float64{1.5, -1, 0.7, 0.4}}
		designs := []basis.Design{
			basis.NewDenseDesign(b, pts),
			basis.NewLazyDesign(b, pts),
			basis.NewGeneratedDesign(b, p.k, int64(p.k)),
		}
		if size := (p.k - p.k/p.folds - 1) * b.Size(); (size >= correlateParallelMin) != (p.name == "colmajor") {
			t.Fatalf("%s: fold n·M = %d on the wrong side of correlateParallelMin", p.name, size)
		}
		for _, d := range designs {
			f := truth.Predict(d)
			for i := range f {
				f[i] += 0.05 * r.NormFloat64()
			}
			for _, fitter := range solvers {
				t.Run(fmt.Sprintf("%s/%T/%s", p.name, d, solverLabel(fitter)), func(t *testing.T) {
					for _, workers := range []int{1, 2} {
						ctx := WithFitWorkers(context.Background(), workers)
						want, err := subsetCrossValidate(ctx, fitter, d, f, p.folds, p.maxLambda)
						if err != nil {
							t.Fatalf("workers=%d: reference: %v", workers, err)
						}
						got, err := CrossValidateCtx(ctx, fitter, d, f, p.folds, p.maxLambda)
						if err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
						for q := range want.FoldErr {
							if !sameBits(got.FoldErr[q], want.FoldErr[q]) {
								t.Fatalf("workers=%d: FoldErr[%d] = %v, want %v", workers, q, got.FoldErr[q], want.FoldErr[q])
							}
						}
						if !sameBits(got.ErrCurve, want.ErrCurve) || got.BestLambda != want.BestLambda {
							t.Fatalf("workers=%d: ErrCurve/BestLambda = %v/%d, want %v/%d", workers, got.ErrCurve, got.BestLambda, want.ErrCurve, want.BestLambda)
						}
						if fmt.Sprint(got.Model.Support) != fmt.Sprint(want.Model.Support) || !sameBits(got.Model.Coef, want.Model.Coef) {
							t.Fatalf("workers=%d: model %v %v, want %v %v", workers, got.Model.Support, got.Model.Coef, want.Model.Support, want.Model.Coef)
						}
					}
				})
			}
		}
	}
}
