package core

import (
	"context"
	"fmt"

	"repro/internal/basis"
	"repro/internal/stats"
)

// subsetDesign exposes a row subset of an underlying design without copying
// it, by scattering/gathering through the row index map. It lets callers
// fit a prefix or sample of a lazy paper-scale design; cross-validation
// folds use basis.MaskRows instead.
type subsetDesign struct {
	d    basis.Design
	rows []int
}

// Rows returns the subset size.
func (s *subsetDesign) Rows() int { return len(s.rows) }

// Cols returns M of the inner design.
func (s *subsetDesign) Cols() int { return s.d.Cols() }

// Column gathers the subset rows of the inner design's column m.
func (s *subsetDesign) Column(dst []float64, m int) []float64 {
	full := s.d.Column(nil, m)
	if dst == nil {
		dst = make([]float64, len(s.rows))
	}
	for i, r := range s.rows {
		dst[i] = full[r]
	}
	return dst
}

// VisitRows streams the inner design's rows, renumbering to subset indices
// and skipping rows outside the subset. One inner pass regardless of the
// subset size.
func (s *subsetDesign) VisitRows(fn func(k int, row []float64)) {
	pos := make(map[int]int, len(s.rows))
	for i, r := range s.rows {
		pos[r] = i
	}
	s.d.VisitRows(func(k int, row []float64) {
		if i, ok := pos[k]; ok {
			fn(i, row)
		}
	})
}

// MulTransVec scatters x into full-length coordinates and delegates.
func (s *subsetDesign) MulTransVec(dst, x []float64) []float64 {
	if len(x) != len(s.rows) {
		panic(fmt.Sprintf("core: subset MulTransVec input length %d, want %d", len(x), len(s.rows)))
	}
	full := make([]float64, s.d.Rows())
	for i, r := range s.rows {
		full[r] = x[i]
	}
	return s.d.MulTransVec(dst, full)
}

// Subset returns a view of d restricted to the given rows.
func Subset(d basis.Design, rows []int) basis.Design {
	return &subsetDesign{d: d, rows: rows}
}

// CVResult reports a cross-validated sparse fit (Section IV-C, Fig. 2).
type CVResult struct {
	// ErrCurve[λ-1] is the cross-validation error ε(λ) averaged over folds.
	ErrCurve []float64
	// FoldErr[q][λ-1] is ε_q(λ) for fold q.
	FoldErr [][]float64
	// BestLambda is the sparsity minimizing ErrCurve.
	BestLambda int
	// Model is the final model: the solver re-run on the full data set with
	// λ = BestLambda.
	Model *Model
}

// CrossValidate selects the sparsity level λ by Q-fold cross-validation and
// returns the model refit on all data with the chosen λ. Folds are
// interleaved (sample k goes to fold k mod Q); shuffle the samples
// beforehand when they are not already exchangeable.
func CrossValidate(fitter PathFitter, d basis.Design, f []float64, folds, maxLambda int) (*CVResult, error) {
	return CrossValidateCtx(context.Background(), fitter, d, f, folds, maxLambda)
}

// CrossValidateCtx is CrossValidate under a context: cancellation is checked
// between folds and, for ContextFitter solvers, inside each fold's path fit,
// so an expired job deadline abandons the cross-validation mid-fold.
func CrossValidateCtx(ctx context.Context, fitter PathFitter, d basis.Design, f []float64, folds, maxLambda int) (*CVResult, error) {
	if err := checkProblem(d, f, maxLambda); err != nil {
		return nil, err
	}
	k := d.Rows()
	if folds < 2 {
		return nil, fmt.Errorf("core: cross-validation needs ≥ 2 folds, got %d", folds)
	}
	if folds > k {
		return nil, fmt.Errorf("core: %d folds exceed %d samples", folds, k)
	}

	result := &CVResult{
		ErrCurve: make([]float64, maxLambda),
		FoldErr:  make([][]float64, folds),
	}
	counts := make([]int, maxLambda)
	// One engine and one design for the whole cross-validation: every fold
	// fit and the final refit run sequentially on the same column-major
	// copy (when the size policy allows one), sharing a single set of
	// correlation and residual buffers instead of allocating Q+1 of them.
	eng := NewEngine(FitWorkersFromContext(ctx))
	if cm := columnMajor(d); cm != nil {
		d = cm
	}
	keep := make([]bool, k)
	for q := 0; q < folds; q++ {
		var testRows []int
		for i := range keep {
			keep[i] = i%folds != q
			if !keep[i] {
				testRows = append(testRows, i)
			}
		}
		// The fold is a row mask over d, not a copy: held-out rows read as
		// zero and the kept rows stay ascending, so the fit equals a fit on
		// the kept rows alone (see basis.MaskedDesign).
		//
		// Fold fits run on row masks, so an exact checkpoint does not apply
		// (its rows are the full data set) and a capture plan must not race
		// across folds — scrub both. A warm start survives: replay is valid
		// on any data and the folds are the bulk of a refine's speedup.
		foldCtx := WithFitStage(WithCheckpointPlan(WithResumeCheckpoint(ctx, nil), nil), fmt.Sprintf("cv-fold-%d", q))
		path, err := fitPathWithEngine(foldCtx, eng, fitter, basis.MaskRows(d, keep), f, maxLambda)
		if err != nil {
			return nil, fmt.Errorf("core: cross-validation fold %d: %w", q, err)
		}
		preds := scoreHeldOut(path, d, testRows)
		testF := make([]float64, len(testRows))
		for t, r := range testRows {
			testF[t] = f[r]
		}
		foldErr := make([]float64, maxLambda)
		for lam := 1; lam <= maxLambda; lam++ {
			// Paths may terminate early; reuse the last available model.
			idx := lam - 1
			if idx >= path.Len() {
				idx = path.Len() - 1
			}
			foldErr[lam-1] = stats.RelativeRMSError(preds[idx], testF)
		}
		result.FoldErr[q] = foldErr
		for i, e := range foldErr {
			result.ErrCurve[i] += e
			counts[i]++
		}
	}
	best, bestErr := 0, 0.0
	for i := range result.ErrCurve {
		result.ErrCurve[i] /= float64(counts[i])
		if i == 0 || result.ErrCurve[i] < bestErr {
			best, bestErr = i+1, result.ErrCurve[i]
		}
	}
	result.BestLambda = best

	// Refit on the full data set. The path is fit to maxLambda rather than
	// BestLambda because batch solvers (StOMP, CD) admit several bases per
	// step: capping admission at BestLambda could truncate a batch, whereas
	// indexing the full path returns the same model the folds scored.
	path, err := fitPathWithEngine(WithFitStage(ctx, "final"), eng, fitter, d, f, maxLambda)
	if err != nil {
		return nil, fmt.Errorf("core: final refit: %w", err)
	}
	idx := best - 1
	if idx >= path.Len() {
		idx = path.Len() - 1
	}
	result.Model = path.Models[idx]
	return result, nil
}

// scoreHeldOut evaluates every path model at the held-out rows:
// preds[mi][t] = Σᵢ coefᵢ·G[testRows[t]][supportᵢ], summed in support order.
// A column-major design is read from its support columns; any other design
// is streamed once, each held-out row dotted with every model's sparse
// coefficients — per-model Predict calls would materialize each support
// column separately, O(λ²) column evaluations per fold, which is
// prohibitive on regenerating designs.
func scoreHeldOut(path *Path, d basis.Design, testRows []int) [][]float64 {
	preds := make([][]float64, path.Len())
	for mi := range preds {
		preds[mi] = make([]float64, len(testRows))
	}
	if cm, ok := d.(*basis.ColMajor); ok {
		for mi, model := range path.Models {
			for t, r := range testRows {
				s := 0.0
				for i, idx := range model.Support {
					s += model.Coef[i] * cm.ColSlice(idx)[r]
				}
				preds[mi][t] = s
			}
		}
		return preds
	}
	t := 0
	d.VisitRows(func(k int, row []float64) {
		if t == len(testRows) || testRows[t] != k {
			return
		}
		for mi, model := range path.Models {
			s := 0.0
			for i, idx := range model.Support {
				s += model.Coef[i] * row[idx]
			}
			preds[mi][t] = s
		}
		t++
	})
	return preds
}
