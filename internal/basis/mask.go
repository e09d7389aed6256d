package basis

import "fmt"

// MaskedDesign is a row-masked view of a design: it keeps all K row indices
// of the inner design but reads every row outside the mask as zero. It is
// how a cross-validation fold trains on the kept rows without copying or
// re-materializing the design — every fold shares the one inner copy.
//
// Summing a masked column adds a v·0 term for each held-out row. Kept rows
// stay in ascending order, so every sum over a masked design equals the
// same sum over the kept rows alone, up to the sign of an exact zero.
// Quantities that count samples (a 1/K scale, the λ ≤ K bound) must use
// KeptRows, not Rows.
type MaskedDesign struct {
	d    Design
	keep []bool
	n    int
}

// MaskRows returns the view of d that keeps the rows k with keep[k] true.
// keep is retained, not copied: it must not change while the view is used.
func MaskRows(d Design, keep []bool) *MaskedDesign {
	if len(keep) != d.Rows() {
		panic(fmt.Sprintf("basis: row mask length %d, design has %d rows", len(keep), d.Rows()))
	}
	n := 0
	for _, ok := range keep {
		if ok {
			n++
		}
	}
	return &MaskedDesign{d: d, keep: keep, n: n}
}

// KeptRows returns the number of rows a fit on d learns from: the kept rows
// of a MaskedDesign, d.Rows() for any other design.
func KeptRows(d Design) int {
	if m, ok := d.(*MaskedDesign); ok {
		return m.n
	}
	return d.Rows()
}

// Rows returns K, the row count of the inner design.
func (m *MaskedDesign) Rows() int { return m.d.Rows() }

// Cols returns M.
func (m *MaskedDesign) Cols() int { return m.d.Cols() }

// Unmasked returns the inner design.
func (m *MaskedDesign) Unmasked() Design { return m.d }

// Kept reports whether row k is inside the mask.
func (m *MaskedDesign) Kept(k int) bool { return m.keep[k] }

// MaskVec copies x into dst (allocated when nil) with the held-out rows set
// to zero.
func (m *MaskedDesign) MaskVec(dst, x []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(x))
	}
	for k, v := range x {
		if m.keep[k] {
			dst[k] = v
		} else {
			dst[k] = 0
		}
	}
	return dst
}

// Column writes basis vector G_j with the held-out rows zeroed.
func (m *MaskedDesign) Column(dst []float64, j int) []float64 {
	dst = m.d.Column(dst, j)
	for k, ok := range m.keep {
		if !ok {
			dst[k] = 0
		}
	}
	return dst
}

// MulTransVec computes Gᵀ·x over the kept rows. The inner design sees x
// with its held-out rows zeroed, which the lazy and generated designs skip.
func (m *MaskedDesign) MulTransVec(dst, x []float64) []float64 {
	return m.d.MulTransVec(dst, m.MaskVec(nil, x))
}

// VisitRows streams every row in order, passing held-out rows as zeros.
func (m *MaskedDesign) VisitRows(fn func(k int, row []float64)) {
	var zero []float64
	m.d.VisitRows(func(k int, row []float64) {
		if m.keep[k] {
			fn(k, row)
			return
		}
		if zero == nil {
			zero = make([]float64, len(row))
		}
		fn(k, zero)
	})
}

var _ Design = (*MaskedDesign)(nil)
