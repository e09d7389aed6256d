package basis

import (
	"math"
	"testing"
)

// TestMaskedDesignReadsHeldOutRowsAsZero checks every Design method of the
// row-masked view against sums over the kept rows alone, bit for bit.
func TestMaskedDesignReadsHeldOutRowsAsZero(t *testing.T) {
	const k, m = 23, 41
	d := randomMatrixDesign(k, m, 5)
	keep := make([]bool, k)
	var kept []int
	for i := range keep {
		if keep[i] = i%4 != 1; keep[i] {
			kept = append(kept, i)
		}
	}
	md := MaskRows(d, keep)
	if md.Rows() != k || md.Cols() != m || KeptRows(md) != len(kept) || KeptRows(d) != k {
		t.Fatalf("dims %d×%d kept %d, want %d×%d kept %d", md.Rows(), md.Cols(), KeptRows(md), k, m, len(kept))
	}
	x := make([]float64, k)
	for i := range x {
		x[i] = float64(i) - 7.5
	}
	got := md.MulTransVec(nil, x)
	for j := 0; j < m; j++ {
		col := d.Column(nil, j)
		want := 0.0
		for _, r := range kept {
			want += col[r] * x[r]
		}
		if math.Float64bits(got[j]) != math.Float64bits(want) {
			t.Fatalf("MulTransVec[%d] = %.17g, want %.17g", j, got[j], want)
		}
		masked := md.Column(nil, j)
		for r, v := range masked {
			if want := col[r]; (keep[r] && v != want) || (!keep[r] && v != 0) {
				t.Fatalf("Column %d row %d = %g (kept %v)", j, r, v, keep[r])
			}
		}
	}
	md.VisitRows(func(r int, row []float64) {
		for j, v := range row {
			if want := d.Column(nil, j)[r]; (keep[r] && v != want) || (!keep[r] && v != 0) {
				t.Fatalf("VisitRows row %d col %d = %g", r, j, v)
			}
		}
	})
}
