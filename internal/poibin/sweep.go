package poibin

// The cell sweep (DESIGN §13). Every exact-tail kernel of this package —
// the windowed tail DP, the convolution-tree leaves behind PMFTrunc, the
// incremental UpdatePMF and the truncated convolution — spends its time in
// one of two loops over independent cells:
//
//   - sweepDown folds one Bernoulli(p) tuple into a band of a PMF:
//     d[c] ← d[c]·q + d[c−1]·p for c = hi…lo, walking downward so each cell
//     still reads the previous round's neighbour.
//   - axpy adds one scaled row of a truncated convolution below its
//     absorbing cell: dst[j] += a·src[j].
//
// On amd64 with AVX2 the exact DPs do not sweep one round at a time.
// tailDPAVX2 (every round of a tail) and leafPMFAVX2 (every tuple of a
// PMFTrunc part) apply two consecutive band rounds in one blocked pass down
// the band, pairPass: four-cell blocks, round 1 computed one block ahead
// and kept in registers, round 2's lower-neighbour vector spliced from the
// two round-1 blocks, only round 2 stored. Band rounds pair up in order;
// a certain tuple between them is a shift, not a round, and absorbs round
// 1's value of its cell. Every cell still gets round 1's two products and
// add, then round 2's, so the bits equal tailDP's and the foldTuple
// chain's; only independent cells change their time order. Both routines
// keep eight zero guard cells below cell 0, which make cell 0 an ordinary
// band cell and let bands widen downward to whole blocks. The tail routine
// also finds each run of certain tuples with one vector compare over the
// next four, and shifts past it at once while it cannot absorb, instead of
// branching on p = 1 per tuple.
//
// The conditional sampler's table build (condsample.go) runs a third loop of
// the same kind, bandCells: one column of the suffix-tail recurrence,
//
//	t = p·next[r] + q·next[r+1],  row[r] = t,  cell[r] = p·next[r] / t,
//
// whose division the vector code does with VDIVPD, correctly rounded like
// the scalar divide.
//
// No cell of any of these loops reads another cell's new value, so the
// loops run several cells per instruction where the CPU allows
// (sweep_amd64.s). The vector code performs, per cell, exactly the scalar
// code's rounded operations — two multiplies, then one add (and the band's
// divide) — so it is bit-identical to the loops below. That is why both sides avoid fused multiply-add: an FMA rounds
// once where the scalar code rounds twice. The Go spec allows fusing
// x*y + z, and the compiler does so on arm64, ppc64le, s390x, riscv64 and
// loong64 (never on amd64); the explicit float64(…) conversions in the Go
// loops forbid it, so every platform computes the same bits, and the
// assembly simply never uses VFMADD. The implementation is chosen once, at
// package initialization, from the CPU's feature bits; nothing configures
// it.

// sweepDownGeneric is the portable sweepDown. lo must be ≥ 1 and hi < len(d)
// when lo ≤ hi; an empty band is a no-op. Walking downward, d[c−1] is the
// next iteration's d[c], so the load is carried; a 4-way unroll — the same
// two multiplies and one add per cell, in the same order — exposes the
// instruction-level parallelism the rolled loop serializes behind it.
func sweepDownGeneric(d []float64, lo, hi int, q, p float64) {
	if hi < lo {
		return
	}
	c := hi
	cur := d[c]
	for ; c >= lo+3; c -= 4 {
		// Constant indices into a five-cell window let one slice check
		// stand in for the per-element bounds checks.
		w := d[c-4 : c+1]
		b, e, f, g := w[3], w[2], w[1], w[0]
		w[4] = float64(cur*q) + float64(b*p)
		w[3] = float64(b*q) + float64(e*p)
		w[2] = float64(e*q) + float64(f*p)
		w[1] = float64(f*q) + float64(g*p)
		cur = g
	}
	for ; c >= lo; c-- {
		below := d[c-1]
		d[c] = float64(cur*q) + float64(below*p)
		cur = below
	}
}

// axpyGeneric is the portable axpy over len(dst) cells; src must be at least
// as long.
func axpyGeneric(dst, src []float64, a float64) {
	src = src[:len(dst)]
	for j, s := range src {
		dst[j] += float64(a * s)
	}
}

// bandCellsGeneric is the portable bandCells over len(row) cells; next must
// hold one more.
func bandCellsGeneric(cell, row, next []float64, p, q float64) {
	next = next[:len(row)+1]
	cell = cell[:len(row)]
	for r := range row {
		a := float64(p * next[r])
		t := a + float64(q*next[r+1])
		row[r] = t
		cell[r] = a / t
	}
}
