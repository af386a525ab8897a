package poibin

import "math/bits"

// useAVX2 is fixed at package initialization: the CPU supports AVX2 and the
// operating system saves the YMM registers across context switches.
var useAVX2 = hasAVX2()

// hasAVX2 reports CPUID's AVX2 bit together with OSXSAVE and the XCR0
// XMM/YMM state bits (implemented in sweep_amd64.s).
func hasAVX2() bool

// sweepDownAVX2 is sweepDown four and eight cells per iteration. It trusts
// its caller for 1 ≤ lo ≤ hi < len(d).
//
//go:noescape
func sweepDownAVX2(d []float64, lo, hi int, q, p float64)

// tailDPAVX2 runs every round of tailDP in one routine, two band rounds
// per pass, and returns the absorbing bucket before the clamp. It trusts
// its caller for 1 ≤ k ≤ len(probs) and a buffer from dpBuf(k+1).
//
//go:noescape
func tailDPAVX2(buf, probs []float64, k int) float64

// leafPMFAVX2 is leafPMFGeneric's foldTuple chain, two tuples per pass, into
// a buffer from dpBuf(L+1); cell L absorbs when L = k. It trusts its caller
// for 1 ≤ L ≤ len(probs) and L ≤ k.
//
//go:noescape
func leafPMFAVX2(buf, probs []float64, L, k int)

// axpyAVX2 is axpy four and eight cells per iteration. It trusts its caller
// for len(src) ≥ len(dst).
//
//go:noescape
func axpyAVX2(dst, src []float64, a float64)

// sweepDown sets d[c] = d[c]·q + d[c−1]·p for c = hi down to lo, reading
// only previous-round values. lo must be ≥ 1 and hi < len(d) when lo ≤ hi.
func sweepDown(d []float64, lo, hi int, q, p float64) {
	if !useAVX2 {
		sweepDownGeneric(d, lo, hi, q, p)
		return
	}
	if hi < lo {
		return
	}
	_ = d[lo-1 : hi+1] // the assembly does no bounds checks
	sweepDownAVX2(d, lo, hi, q, p)
}

// dpTail is the tail DP Scratch.Tail runs on a buffer from dpBuf(k+1):
// tailDP, with every round in one assembly routine where the CPU has AVX2.
// Both give the same bits.
func dpTail(buf, probs []float64, k int) float64 {
	if !useAVX2 {
		return tailDP(buf[dpGuard:], probs, k)
	}
	_ = buf[dpGuard+k] // the assembly does no bounds checks
	return clampProb(tailDPAVX2(buf, probs, k))
}

// leafPMF fills v (length min(len(probs), k)+1) with the truncated PMF of
// probs, as leafPMFGeneric does, with two tuples per pass where the CPU has
// AVX2. Both give the same bits.
func (s *Scratch) leafPMF(v, probs []float64, k int) {
	if !useAVX2 || len(probs) == 0 {
		leafPMFGeneric(v, probs, k)
		return
	}
	buf := s.dpBuf(len(v))
	_ = probs[len(v)-2] // the assembly does no bounds checks
	leafPMFAVX2(buf, probs, len(v)-1, k)
	copy(v, buf[dpGuard:])
}

// axpy sets dst[j] += a·src[j] for every j < len(dst).
func axpy(dst, src []float64, a float64) {
	if !useAVX2 {
		axpyGeneric(dst, src, a)
		return
	}
	_ = src[:len(dst)] // the assembly does no bounds checks
	axpyAVX2(dst, src, a)
}

// bandCellsAVX2 is bandCells four cells per iteration. It trusts its caller
// for len(cell) ≥ len(row) and len(next) > len(row).
//
//go:noescape
func bandCellsAVX2(cell, row, next []float64, p, q float64)

// walk8AVX2 walks eight conditioned worlds in lockstep over the first
// len(masks) positions of the sampler table tab (column stride stride,
// every world starting at cell (0, stride−1)), world j drawing from the
// generator state st[j]; masks holds one word per position. It returns a
// bit mask of the worlds whose present positions' masks cover want, bit j
// for world j. It trusts its caller for a table of len(masks) columns whose
// band holds every cell a walk selects, every cell a walk reaches being
// finite (DESIGN §13), and for states none of whose len(masks) draws is a
// Float64 retry.
//
//go:noescape
func walk8AVX2(tab []float64, masks []uint64, stride int, want uint64, st *[lanes]uint64) int

// bandCells computes one column of the conditional sampler's table: for
// every r < len(row), t = p·next[r] + (1−p)·next[r+1] goes to row[r] and
// p·next[r]/t to cell[r], NaN where t is 0. next must hold len(row)+1
// entries and cell at least len(row).
func bandCells(cell, row, next []float64, p float64) {
	if !useAVX2 {
		bandCellsGeneric(cell, row, next, p, 1-p)
		return
	}
	_, _ = cell[:len(row)], next[:len(row)+1] // the assembly does no bounds checks
	bandCellsAVX2(cell, row, next, p, 1-p)
}

// walkLanes draws the next eight worlds of CountCovers with the vector
// walker, world j starting j·n draws after rng's state, and leaves rng
// eight whole worlds on; each walk visits the len(masks) tabled positions
// only. The caller guarantees the walker's preconditions: a nonzero
// one-word want, masks within the table and no retry among the next 8·n
// draws.
func (cs *CondSampler) walkLanes(rng *SM64, masks []uint64, want uint64) int {
	n := cs.n
	var st [lanes]uint64
	for j := range st {
		st[j] = rng.state + uint64(j*n)*golden
	}
	rng.state += uint64(lanes*n) * golden
	return bits.OnesCount(uint(walk8AVX2(cs.tab[:len(masks)*(cs.k+1)], masks, cs.k+1, want, &st)))
}
