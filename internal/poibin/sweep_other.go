//go:build !amd64

package poibin

// sweepDown sets d[c] = d[c]·q + d[c−1]·p for c = hi down to lo, reading
// only previous-round values. lo must be ≥ 1 and hi < len(d) when lo ≤ hi.
func sweepDown(d []float64, lo, hi int, q, p float64) { sweepDownGeneric(d, lo, hi, q, p) }

// axpy sets dst[j] += a·src[j] for every j < len(dst).
func axpy(dst, src []float64, a float64) { axpyGeneric(dst, src, a) }
