package basis

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// randomDense builds a dense design over a quadratic basis with seeded
// normal points.
func randomDense(t *testing.T, dim, k int, seed int64) (*Basis, *DenseDesign) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := Quadratic(dim)
	pts := make([][]float64, k)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			pts[i][j] = r.NormFloat64()
		}
	}
	return b, NewDenseDesign(b, pts)
}

func TestColMajorMatchesDense(t *testing.T) {
	// dim=30 gives M=496, which spans two 256-column blocks — the block
	// boundary is the interesting case for ColSlice offsets.
	_, d := randomDense(t, 30, 37, 7)
	cm := NewColMajor(d)
	if cm.Rows() != d.Rows() || cm.Cols() != d.Cols() {
		t.Fatalf("dims %dx%d, want %dx%d", cm.Rows(), cm.Cols(), d.Rows(), d.Cols())
	}
	for _, j := range []int{0, 1, 255, 256, 257, cm.Cols() - 1} {
		want := d.Column(nil, j)
		got := cm.ColSlice(j)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("column %d row %d: %g, want %g", j, i, got[i], want[i])
			}
		}
		if copied := cm.Column(nil, j); copied[len(copied)-1] != want[len(want)-1] {
			t.Fatalf("Column copy mismatch at %d", j)
		}
	}
}

func TestColMajorMulTransVecBitIdentical(t *testing.T) {
	// The engine relies on ColMajor's per-column ascending-row summation
	// matching the row-streaming implementations bit for bit, so that
	// swapping storage never perturbs solver selections.
	_, d := randomDense(t, 30, 41, 11)
	cm := NewColMajor(d)
	r := rand.New(rand.NewSource(13))
	x := make([]float64, d.Rows())
	for i := range x {
		x[i] = r.NormFloat64()
	}
	want := d.MulTransVec(nil, x)
	got := cm.MulTransVec(nil, x)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("MulTransVec[%d] = %.17g, want %.17g", j, got[j], want[j])
		}
	}
	// Range form over an arbitrary split must agree with the full sweep.
	ranged := make([]float64, cm.Cols())
	cm.MulTransVecRange(ranged, x, 0, 100)
	cm.MulTransVecRange(ranged, x, 100, cm.Cols())
	for j := range want {
		if ranged[j] != want[j] {
			t.Fatalf("MulTransVecRange[%d] = %.17g, want %.17g", j, ranged[j], want[j])
		}
	}
}

func TestColMajorVisitRows(t *testing.T) {
	_, d := randomDense(t, 30, 9, 17)
	cm := NewColMajor(d)
	visited := 0
	cm.VisitRows(func(k int, row []float64) {
		visited++
		for _, j := range []int{0, 300, cm.Cols() - 1} {
			want := d.Column(nil, j)[k]
			if math.Abs(row[j]-want) != 0 {
				t.Fatalf("row %d col %d: %g, want %g", k, j, row[j], want)
			}
		}
	})
	if visited != d.Rows() {
		t.Fatalf("visited %d rows, want %d", visited, d.Rows())
	}
}

func TestColMajorColSliceBoundsPanic(t *testing.T) {
	_, d := randomDense(t, 5, 4, 19)
	cm := NewColMajor(d)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range column")
		}
	}()
	cm.ColSlice(cm.Cols())
}

// randomMatrixDesign returns a k×m dense design of seeded normal entries,
// every seventh one an exact zero.
func randomMatrixDesign(k, m int, seed int64) *DenseDesign {
	r := rand.New(rand.NewSource(seed))
	g := linalg.NewMatrix(k, m)
	for i := range g.Data {
		if i%7 != 3 {
			g.Data[i] = r.NormFloat64()
		}
	}
	return DenseDesignFromMatrix(g)
}

// TestMulTransVecRangeTiledBitIdentical holds the 4-column tiled kernel to a
// plain linalg.Dot per column, bit for bit. M = 517 spans three storage
// blocks and is not a multiple of 4. For K ∈ {1, 3} every range [lo, hi) is
// swept — every odd lo and hi, every block crossing; for K = 500 the ranges
// start and end around the block boundaries. Entries outside the range
// must stay untouched.
func TestMulTransVecRangeTiledBitIdentical(t *testing.T) {
	const m = 517
	edges := []int{0, 1, 2, 3, 5, 8, 251, 253, 255, 256, 257, 259, 260, 509, 511, 512, 513, 515, 516, 517}
	for _, k := range []int{1, 3, 500} {
		cm := NewColMajor(randomMatrixDesign(k, m, int64(k)))
		r := rand.New(rand.NewSource(int64(k) + 1))
		x := make([]float64, k)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		x[0] = 0
		want := make([]float64, m)
		for j := range want {
			want[j] = linalg.Dot(cm.ColSlice(j), x)
		}
		var los, his []int
		if k < 500 {
			for i := 0; i <= m; i++ {
				los, his = append(los, i), append(his, i)
			}
		} else {
			los, his = edges, edges
		}
		dst := make([]float64, m)
		sentinel := math.Float64frombits(0x7ff8dead)
		for _, lo := range los {
			for _, hi := range his {
				if lo >= hi {
					continue
				}
				if lo > 0 {
					dst[lo-1] = sentinel
				}
				if hi < m {
					dst[hi] = sentinel
				}
				cm.MulTransVecRange(dst, x, lo, hi)
				for j := lo; j < hi; j++ {
					if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
						t.Fatalf("K=%d [%d,%d): dst[%d] = %.17g, want %.17g", k, lo, hi, j, dst[j], want[j])
					}
				}
				if (lo > 0 && math.Float64bits(dst[lo-1]) != 0x7ff8dead) || (hi < m && math.Float64bits(dst[hi]) != 0x7ff8dead) {
					t.Fatalf("K=%d [%d,%d): wrote outside the range", k, lo, hi)
				}
			}
		}
	}
}

// TestSquaredColumnNormsColumnPathBitIdentical holds the contiguous-column
// norms of a ColMajor design, bare and under a row mask, to the
// row-streaming pass over the same rows.
func TestSquaredColumnNormsColumnPathBitIdentical(t *testing.T) {
	for _, k := range []int{1, 3, 500} {
		d := randomMatrixDesign(k, 517, int64(k)+2)
		cm := NewColMajor(d)
		keep := make([]bool, k)
		for i := range keep {
			keep[i] = i%5 != 2
		}
		for _, c := range []struct {
			name        string
			fast, rowed Design
		}{
			{"colmajor", cm, d},
			{"masked", MaskRows(cm, keep), MaskRows(d, keep)},
		} {
			got := SquaredColumnNorms(c.fast, nil)
			want := SquaredColumnNorms(c.rowed, nil)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("K=%d %s: norm²[%d] = %.17g, want %.17g", k, c.name, j, got[j], want[j])
				}
			}
		}
	}
}
