// Package convert implements the layout-conversion algorithms of Section 4.3
// of the paper:
//
//   - RMToBI: the natural recursive quadrant copy. T∞ = O(log n),
//     W = O(n²), Q = O(n²/B); block delay O(S·B) because each stolen task
//     writes left-to-right into a contiguous piece of the BI vector
//     (Lemma 4.6).
//   - BIToRM: the paper's slower but block-miss-frugal conversion: the BI
//     array is split into its four quadrant subarrays, each recursively
//     converted to RM order in a local buffer, and a tree computation merges
//     the four buffers row-wise into the parent array. T∞ = O(log² n),
//     W = O(n² log n) (Lemma 4.7).
//   - BIToRMNatural: the direct depth-log n tree the paper *rejects*: a
//     stolen subtask writes to Θ(√|τ|) blocks shared with other tasks.
//     Included as the ablation that shows why the paper pays the extra
//     depth; experiment E06 compares the two.
package convert

import (
	"rwsfs/internal/layout"
	"rwsfs/internal/machine"
	"rwsfs/internal/matrix"
	"rwsfs/internal/mem"
	"rwsfs/internal/rws"
)

// Base is the side length at which the conversions switch to a direct copy.
const Base = 8

// RMToBI builds the task converting src (RM) into dst (BI). Both must be
// n x n with n a power of two.
func RMToBI(src, dst matrix.Mat) func(*rws.Ctx) {
	check(src, layout.RowMajor, dst, layout.BitInterleaved)
	return func(c *rws.Ctx) {
		rmToBI(c, src, 0, 0, dst)
	}
}

// rmToBI copies the m x m submatrix of src at (r0, c0) into the contiguous
// BI matrix dst.
func rmToBI(c *rws.Ctx, src matrix.Mat, r0, c0 int, dst matrix.Mat) {
	m := dst.N
	if m <= Base {
		c.Node()
		// Read the m rows of the RM submatrix (m strided ranges: the √τ
		// term of Lemma 4.6), write the contiguous BI quadrant.
		for r := 0; r < m; r++ {
			c.ReadRange(src.At(r0+r, c0), m)
		}
		c.Work(machine.Tick(m * m))
		mm := c.Mem()
		for r := 0; r < m; r++ {
			for cc := 0; cc < m; cc++ {
				mm.StoreFloat(dst.Base+mem.Addr(layout.MortonIndex(r, cc)),
					mm.LoadFloat(src.At(r0+r, c0+cc)))
			}
		}
		c.WriteRange(dst.Base, m*m)
		return
	}
	h := m / 2
	c.ForkN(4, func(i int, c *rws.Ctx) {
		q := layout.Quadrant(i)
		dr, dc := layout.QuadrantOrigin(q, m)
		rmToBI(c, src, r0+dr, c0+dc, dst.Quad(q))
	})
	_ = h
}

// BIToRM builds the depth-log²n conversion of src (BI) into dst (RM).
func BIToRM(src, dst matrix.Mat) func(*rws.Ctx) {
	check(src, layout.BitInterleaved, dst, layout.RowMajor)
	return func(c *rws.Ctx) {
		biToRM(c, src, dst.Base)
	}
}

// StackWordsBIToRM estimates the stack need of BIToRM on an n x n matrix:
// one n²-word buffer per level of the current path, a geometric series.
func StackWordsBIToRM(n int) int { return 2*n*n + 64*n + 1024 }

// biToRM converts the contiguous BI matrix src into a contiguous n x n RM
// array at dstBase.
func biToRM(c *rws.Ctx, src matrix.Mat, dstBase mem.Addr) {
	m := src.N
	if m <= Base {
		c.Node()
		c.ReadRange(src.Base, m*m)
		c.Work(machine.Tick(m * m))
		mm := c.Mem()
		for r := 0; r < m; r++ {
			for cc := 0; cc < m; cc++ {
				mm.StoreFloat(dstBase+mem.Addr(r*m+cc),
					mm.LoadFloat(src.Base+mem.Addr(layout.MortonIndex(r, cc))))
			}
		}
		c.WriteRange(dstBase, m*m)
		return
	}
	h := m / 2
	bufSeg := c.Alloc(m * m)
	hint := func(lo, hi int) int { return (hi - lo) * StackWordsBIToRM(h) }
	// Convert the four quadrants into the four contiguous h x h RM buffers.
	c.ForkNHint(4, hint, func(i int, c *rws.Ctx) {
		q := layout.Quadrant(i)
		biToRM(c, src.Quad(q), bufSeg.Base+mem.Addr(layout.QuadrantOffset(q, m)))
	})
	// Merge: a BP tree over the 2m row-copies, each writing one contiguous
	// h-word run of the parent array (Regular Pattern).
	c.ForkN(2*m, func(i int, c *rws.Ctx) {
		// Rows interleave quadrants: i enumerates (quadrant, row) pairs in
		// destination order: row r of dst is built from (TL row r | TR row r)
		// for r < h and (BL row r-h | BR row r-h) otherwise.
		r := i / 2
		right := i%2 == 1
		var q layout.Quadrant
		switch {
		case r < h && !right:
			q = layout.QTL
		case r < h && right:
			q = layout.QTR
		case !right:
			q = layout.QBL
		default:
			q = layout.QBR
		}
		srcRow := bufSeg.Base + mem.Addr(layout.QuadrantOffset(q, m)+(r%h)*h)
		dstRow := dstBase + mem.Addr(r*m)
		if right {
			dstRow += mem.Addr(h)
		}
		c.Node()
		c.ReadRange(srcRow, h)
		c.Work(machine.Tick(h))
		mm := c.Mem()
		for j := 0; j < h; j++ {
			mm.StoreFloat(dstRow+mem.Addr(j), mm.LoadFloat(srcRow+mem.Addr(j)))
		}
		c.WriteRange(dstRow, h)
	})
	c.Free(bufSeg)
}

// BIToRMNatural builds the direct depth-log n conversion the paper rejects:
// each leaf writes its base-case rows straight into the final RM array, so a
// stolen subtask of size τ writes into Θ(√τ) blocks it shares with siblings.
func BIToRMNatural(src, dst matrix.Mat) func(*rws.Ctx) {
	check(src, layout.BitInterleaved, dst, layout.RowMajor)
	return func(c *rws.Ctx) {
		biToRMNatural(c, src, 0, 0, dst)
	}
}

func biToRMNatural(c *rws.Ctx, src matrix.Mat, r0, c0 int, dst matrix.Mat) {
	m := src.N
	if m <= Base {
		c.Node()
		c.ReadRange(src.Base, m*m)
		c.Work(machine.Tick(m * m))
		mm := c.Mem()
		for r := 0; r < m; r++ {
			for cc := 0; cc < m; cc++ {
				mm.StoreFloat(dst.At(r0+r, c0+cc),
					mm.LoadFloat(src.Base+mem.Addr(layout.MortonIndex(r, cc))))
			}
			// The strided writes: m short runs in blocks shared with the
			// tasks converting horizontally adjacent quadrants.
			c.WriteRange(dst.At(r0+r, c0), m)
		}
		return
	}
	c.ForkN(4, func(i int, c *rws.Ctx) {
		q := layout.Quadrant(i)
		dr, dc := layout.QuadrantOrigin(q, m)
		biToRMNatural(c, src.Quad(q), r0+dr, c0+dc, dst)
	})
}

// BIToRMRowGather is a reconstruction of the improved BI→RM conversion the
// paper attributes to [6] (Section 7: "an improved method ... with
// T∞ = O(log n)"): one BP tree whose ith leaf *gathers* destination row i
// from the O(n/Base) contiguous base-tile rows that intersect it and writes
// it as a single contiguous run. Writes stay Regular-Pattern (each stolen
// task shares O(1) writable blocks when rows span ≥ 1 block), reads are
// strided but reads never invalidate, so the block delay stays O(S·B) at
// depth O(log n) and work O(n²) — beating BIToRM on both counts.
//
// [6] was never published with code; this is a reconstruction.
func BIToRMRowGather(src, dst matrix.Mat) func(*rws.Ctx) {
	check(src, layout.BitInterleaved, dst, layout.RowMajor)
	n := src.N
	return func(c *rws.Ctx) {
		c.ForkN(n, func(r int, c *rws.Ctx) {
			c.Node()
			// Within each Morton tile, a fixed row's fragment sits in a
			// short address span but is not contiguous; charge the reads
			// per element for an exact count. Reads never invalidate, so
			// only the (contiguous, Regular Pattern) row write can conflict.
			mm := c.Mem()
			for cc := 0; cc < n; cc++ {
				from := src.At(r, cc)
				c.Read(from)
				mm.StoreFloat(dst.At(r, cc), mm.LoadFloat(from))
			}
			c.Work(machine.Tick(n))
			c.WriteRange(dst.At(r, 0), n)
		})
	}
}

func check(src matrix.Mat, sk layout.Kind, dst matrix.Mat, dk layout.Kind) {
	if src.Layout != sk || dst.Layout != dk {
		panic("convert: layout mismatch")
	}
	if src.N != dst.N {
		panic("convert: dimension mismatch")
	}
	if !layout.IsPow2(src.N) {
		panic("convert: n must be a power of two")
	}
}
