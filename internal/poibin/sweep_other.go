//go:build !amd64

package poibin

// useAVX2 is false off amd64: the portable kernels are the only ones.
const useAVX2 = false

// sweepDown sets d[c] = d[c]·q + d[c−1]·p for c = hi down to lo, reading
// only previous-round values. lo must be ≥ 1 and hi < len(d) when lo ≤ hi.
func sweepDown(d []float64, lo, hi int, q, p float64) { sweepDownGeneric(d, lo, hi, q, p) }

// dpTail is the tail DP Scratch.Tail runs on a buffer from dpBuf(k+1).
func dpTail(buf, probs []float64, k int) float64 { return tailDP(buf[dpGuard:], probs, k) }

// leafPMF fills v (length min(len(probs), k)+1) with the truncated PMF of
// probs.
func (s *Scratch) leafPMF(v, probs []float64, k int) { leafPMFGeneric(v, probs, k) }

// axpy sets dst[j] += a·src[j] for every j < len(dst).
func axpy(dst, src []float64, a float64) { axpyGeneric(dst, src, a) }

// bandCells computes one column of the conditional sampler's table: for
// every r < len(row), t = p·next[r] + (1−p)·next[r+1] goes to row[r] and
// p·next[r]/t to cell[r], NaN where t is 0. next must hold len(row)+1
// entries and cell at least len(row).
func bandCells(cell, row, next []float64, p float64) {
	bandCellsGeneric(cell, row, next, p, 1-p)
}

// walkLanes is never reached: CountCovers runs the vector walker only when
// useAVX2 is set.
func (cs *CondSampler) walkLanes(*SM64, []uint64, uint64) int {
	panic("poibin: no vector walker on this architecture")
}
