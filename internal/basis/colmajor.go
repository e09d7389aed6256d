package basis

import (
	"fmt"

	"repro/internal/linalg"
)

// colMajorBlock is how many columns share one backing slice in a ColMajor
// design. Blocked storage keeps any single allocation below
// colMajorBlock·K·8 bytes, so paper-scale dictionaries never ask the
// allocator for one monolithic K·M array, while each column stays fully
// contiguous — the property the correlation kernel's per-column dot products
// need to run at memory bandwidth.
const colMajorBlock = 256

// ColMajor stores a design matrix column-major in fixed-width column blocks.
// It is the cache-friendly substrate of the solver engine's Gᵀ·res sweep:
// row-major storage (DenseDesign) walks M-strided memory when a kernel
// consumes one column at a time, whereas here every column is one contiguous
// slice, so a column-sharded parallel sweep touches disjoint cache lines and
// needs no per-worker accumulators.
//
// Summation order per column is ascending row index — identical to the
// row-streaming MulTransVec implementations — so switching a solver to
// ColMajor storage changes performance, not results.
type ColMajor struct {
	rows, cols int
	blocks     [][]float64 // blocks[b] holds columns [b·colMajorBlock, …) column-contiguous
}

// NewColMajor materializes any design into column-major blocked storage with
// a single row-streaming pass. The copy costs one VisitRows sweep and K·M
// floats of memory; callers gate it on problem size (see core's engine
// policy) since a path fit amortizes the pass over its many correlation
// sweeps but a lazy paper-scale design must never be materialized.
func NewColMajor(d Design) *ColMajor {
	k, m := d.Rows(), d.Cols()
	c := &ColMajor{rows: k, cols: m}
	nblocks := (m + colMajorBlock - 1) / colMajorBlock
	c.blocks = make([][]float64, nblocks)
	for b := range c.blocks {
		c.blocks[b] = make([]float64, c.blockWidth(b)*k)
	}
	d.VisitRows(func(row int, vals []float64) {
		for j, v := range vals {
			c.blocks[j/colMajorBlock][(j%colMajorBlock)*k+row] = v
		}
	})
	return c
}

// blockWidth returns the number of columns stored in block b.
func (c *ColMajor) blockWidth(b int) int {
	w := c.cols - b*colMajorBlock
	if w > colMajorBlock {
		w = colMajorBlock
	}
	return w
}

// Rows returns K.
func (c *ColMajor) Rows() int { return c.rows }

// Cols returns M.
func (c *ColMajor) Cols() int { return c.cols }

// ColSlice returns the contiguous backing slice of column j without copying.
// The slice is read-only from the caller's perspective.
func (c *ColMajor) ColSlice(j int) []float64 {
	if j < 0 || j >= c.cols {
		panic(fmt.Sprintf("basis: ColSlice column %d outside [0,%d)", j, c.cols))
	}
	off := (j % colMajorBlock) * c.rows
	return c.blocks[j/colMajorBlock][off : off+c.rows]
}

// Column copies basis vector j into dst (allocated when nil).
func (c *ColMajor) Column(dst []float64, j int) []float64 {
	if dst == nil {
		dst = make([]float64, c.rows)
	}
	copy(dst, c.ColSlice(j))
	return dst
}

// MulTransVec computes dst = Gᵀ·x column by column: each dst[j] is one
// contiguous dot product. This is the serial form of the engine's
// correlation kernel.
func (c *ColMajor) MulTransVec(dst, x []float64) []float64 {
	if len(x) != c.rows {
		panic(fmt.Sprintf("basis: MulTransVec input length %d, want %d", len(x), c.rows))
	}
	if dst == nil {
		dst = make([]float64, c.cols)
	}
	c.MulTransVecRange(dst, x, 0, c.cols)
	return dst
}

// MulTransVecRange computes dst[j] = G_jᵀ·x for j in [lo, hi). It is the
// shard unit of the parallel correlation sweep: disjoint column ranges write
// disjoint dst entries, so workers need no synchronization beyond the final
// join.
//
// Columns are swept four per pass over x (dot4) within each storage block;
// the columns left over at a block's end, or at hi, run as plain dots. The
// four accumulators each sum their own column in ascending row order, so
// every dst[j] is bit-identical to linalg.Dot(ColSlice(j), x) — tiling only
// replaces one latency-bound add chain with four independent ones.
func (c *ColMajor) MulTransVecRange(dst, x []float64, lo, hi int) {
	if len(x) != c.rows {
		panic(fmt.Sprintf("basis: MulTransVecRange input length %d, want %d", len(x), c.rows))
	}
	k := c.rows
	for lo < hi {
		b := lo / colMajorBlock
		end := min(hi, (b+1)*colMajorBlock)
		blk := c.blocks[b]
		j := lo
		for ; j+4 <= end; j += 4 {
			off := (j - b*colMajorBlock) * k
			dst[j], dst[j+1], dst[j+2], dst[j+3] = dot4(blk[off:off+4*k], x)
		}
		for ; j < end; j++ {
			off := (j - b*colMajorBlock) * k
			dst[j] = linalg.Dot(blk[off:off+k], x)
		}
		lo = end
	}
}

// dot4 returns the dot products of x with the four consecutive columns
// stored in cols (len(cols) == 4·len(x)), each summed in ascending row
// order exactly like linalg.Dot.
func dot4(cols, x []float64) (s0, s1, s2, s3 float64) {
	k := len(x)
	c0, c1, c2, c3 := cols[:k], cols[k:2*k], cols[2*k:3*k], cols[3*k:4*k]
	c1, c2, c3 = c1[:k], c2[:k], c3[:k] // lets the compiler drop bounds checks
	for i, v := range x {
		s0 += c0[i] * v
		s1 += c1[i] * v
		s2 += c2[i] * v
		s3 += c3[i] * v
	}
	return s0, s1, s2, s3
}

// VisitRows streams the rows in order, assembling each from the column
// blocks. Row access is the slow direction of this layout; it exists to
// satisfy the Design contract (subset views, copies), not for hot loops.
func (c *ColMajor) VisitRows(fn func(k int, row []float64)) {
	row := make([]float64, c.cols)
	for k := 0; k < c.rows; k++ {
		for b, blk := range c.blocks {
			w := c.blockWidth(b)
			base := b * colMajorBlock
			for j := 0; j < w; j++ {
				row[base+j] = blk[j*c.rows+k]
			}
		}
		fn(k, row)
	}
}

var _ Design = (*ColMajor)(nil)
