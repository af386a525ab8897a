package poibin

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

// axpy sets dst[j] += a·src[j] for every j < len(dst).
func axpy(dst, src []float64, a float64) {
	if !useAVX2 {
		axpyGeneric(dst, src, a)
		return
	}
	_ = src[:len(dst)] // the assembly does no bounds checks
	axpyAVX2(dst, src, a)
}
