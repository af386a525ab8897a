package poibin

import "math"

// Incremental maintenance of truncated Poisson-binomial PMFs (DESIGN §15).
//
// A sliding window adds and evicts one transaction at a time, and the
// per-item tail Pr[S ≥ min_sup] it needs is exactly the absorbing bin of the
// truncated PMF that PMFTrunc builds. Folding one success probability in is
// the same O(k) DP step the portable leafPMFGeneric runs per tuple — both
// call foldTuple — and the AVX2 leaf applies the same steps two tuples per
// pass with the same rounded operations, so UpdatePMF below is
// bit-identical to re-running the DP with the tuple appended
// (TestUpdatePMFMatchesPMFTrunc, TestLeafPMFAVX2MatchesFoldTuple and
// FuzzTailKernels pin this).
// Removing one is polynomial deconvolution: the DP step is linear in the
// old coefficients, so it inverts to a forward or backward O(k) recurrence
// — but the inversion divides by q = 1-p (or by p), which amplifies
// rounding when the pivot is small and loses
// information entirely for p = 1 under truncation (the absorbing bin has
// forgotten how much mass sat strictly above k). Deconvolve therefore
// self-checks by re-convolving its candidate and reports ok=false when the
// roundtrip drifts, and callers fall back to a from-scratch PMFTrunc — the
// fallback is always exact, so incremental maintenance is an optimization
// that can never change what a query reads beyond the verified tolerance.
//
// Unlike the Scratch freelist vectors, these run on plain caller-owned
// slices: a maintained PMF lives for the lifetime of a window item, not a
// single evaluation.

// deconvRoundtripTol bounds the absolute per-cell drift allowed between the
// input vector and the candidate re-convolved with the removed tuple. The
// forward recurrence's error grows like (p/q)^k, so a tight absolute bound
// rejects exactly the regimes where cancellation has destroyed the
// coefficients; rejected removals rebuild from scratch.
const deconvRoundtripTol = 1e-12

// deconvAmpBudget caps the error amplification (p/q)^k the forward sweep on
// an absorbing vector may incur. The sweep is a triangular solve whose
// inverse norm grows like (p/q)^k, so ulp-level differences between the
// input vector's fold order and the remainder's fold order blow up by that
// factor — a regime the roundtrip check cannot see, because near-singular
// systems have many candidates that re-convolve to the same input. With
// machine epsilon ~2e-16, a 1e6 budget keeps accepted answers within ~1e-9
// of the from-scratch DP (TestDeconvolveFuzz pins this).
const deconvAmpBudget = 1e6

// NewPMF returns the truncated PMF of an empty product — the single cell
// Pr[S = 0] = 1 — ready to grow via UpdatePMF.
func NewPMF() []float64 { return []float64{1} }

// UpdatePMF folds one success probability into a truncated PMF in place,
// growing the vector by one cell until it reaches the absorbing length k+1.
// The result is bit-identical to leafPMF over the extended tuple sequence,
// so a PMF maintained by UpdatePMF reads the same tail a from-scratch
// PMFTrunc would. For k ≤ 0 the PMF is the single absorbing bin and the
// update is a no-op. Returns the (possibly reallocated) vector.
func UpdatePMF(v []float64, p float64, k int) []float64 {
	if k <= 0 {
		return v
	}
	if len(v)-1 < k {
		v = append(v, 0)
	}
	L := len(v) - 1
	foldTuple(v, L, p, L == k)
	return v
}

// Deconvolve removes one success probability p from a truncated PMF of n
// tuples, returning a fresh vector of length min(n-1, k)+1 and ok=true, or
// ok=false when the removal cannot be done stably (the caller rebuilds from
// scratch). n is the number of tuples folded into v — needed because an
// absorbing vector of length k+1 looks the same for every n ≥ k.
//
// Three regimes:
//   - exact vectors (n ≤ k): invertible both ways; the recurrence direction
//     follows the larger pivot (forward divides by q, backward by p), so
//     p = 1 removals are the exact backward shift and p → 0 removals are the
//     well-conditioned forward sweep. The spare cell validates the result.
//   - absorbing vectors (n > k), p ≤ 1/2: forward sweep; the absorbing bin
//     inverts without division. Validated by re-convolving.
//   - absorbing vectors (n > k), p close to 1: the truncation has lost
//     Pr[S ≥ k+1] and the forward sweep divides by a vanishing q — the
//     roundtrip check rejects what cancellation has destroyed.
func Deconvolve(v []float64, n int, p float64, k int) ([]float64, bool) {
	if n <= 0 || p <= 0 || p > 1 {
		return nil, false
	}
	if k <= 0 {
		// Single absorbing bin [1] at every n; removal keeps it.
		return []float64{1}, true
	}
	q := 1 - p
	if n <= k {
		// Exact full PMF: len(v) == n+1, output length n.
		if len(v) != n+1 {
			return nil, false
		}
		w := make([]float64, n)
		if p >= 0.5 {
			// Backward: w[n-1] = v[n]/p; v[c+1] = w[c]*p + w[c+1]*q.
			w[n-1] = v[n] / p
			for c := n - 2; c >= 0; c-- {
				w[c] = (v[c+1] - float64(w[c+1]*q)) / p
			}
			if !plausiblePMF(w) || !closeAbs(v[0], float64(w[0]*q)) {
				return nil, false
			}
		} else {
			// Forward: w[0] = v[0]/q; v[c] = w[c]*q + w[c-1]*p.
			w[0] = v[0] / q
			for c := 1; c < n; c++ {
				w[c] = (v[c] - float64(w[c-1]*p)) / q
			}
			if !plausiblePMF(w) || !closeAbs(v[n], float64(w[n-1]*p)) {
				return nil, false
			}
		}
		clampCells(w)
		return w, true
	}
	// Absorbing vector: len(v) == k+1 and the output keeps that length
	// (n-1 ≥ k). Only the forward sweep applies — the absorbing top is not
	// an exact coefficient, so there is nothing sound to seed a backward
	// recurrence with.
	if len(v) != k+1 {
		return nil, false
	}
	if q < 1e-12 {
		// p = 1: the absorbing bin merged Pr[S = k] with Pr[S ≥ k+1] and the
		// split is unrecoverable from the truncated vector.
		return nil, false
	}
	if p > q && float64(k)*math.Log(p/q) > math.Log(deconvAmpBudget) {
		// Ill-conditioned: the solve would amplify rounding beyond the
		// advertised tolerance even though the roundtrip would close.
		return nil, false
	}
	w := make([]float64, k+1)
	w[0] = v[0] / q
	for c := 1; c < k; c++ {
		w[c] = (v[c] - float64(w[c-1]*p)) / q
	}
	// Absorbing bin inverse of UpdatePMF's v[k] += v[k-1]*p.
	w[k] = v[k] - float64(w[k-1]*p)
	if !plausiblePMF(w) {
		return nil, false
	}
	// Self-check: re-folding the removed tuple must reproduce the input.
	// This is what turns "forward sweep might have cancelled" into a sound
	// answer: either the roundtrip closes and w is within tolerance of the
	// true remainder, or we refuse and the caller rebuilds exactly.
	if !roundtripCloses(w, v, p, k) {
		return nil, false
	}
	clampCells(w)
	return w, true
}

// plausiblePMF rejects vectors with NaN/Inf cells or cells outside [0,1]
// beyond rounding slack — the unambiguous signature of a cancelled sweep.
func plausiblePMF(w []float64) bool {
	for _, c := range w {
		if !(c >= -deconvRoundtripTol && c <= 1+deconvRoundtripTol) {
			return false // also catches NaN
		}
	}
	return true
}

// clampCells snaps rounding residue back into [0,1].
func clampCells(w []float64) {
	for i, c := range w {
		if c < 0 {
			w[i] = 0
		} else if c > 1 {
			w[i] = 1
		}
	}
}

func closeAbs(a, b float64) bool {
	d := a - b
	return d >= -deconvRoundtripTol && d <= deconvRoundtripTol
}

// roundtripCloses re-applies the removed tuple to the candidate remainder
// and compares against the original absorbing vector cell by cell.
func roundtripCloses(w, v []float64, p float64, k int) bool {
	q := 1 - p
	// Mirror UpdatePMF on an absorbing-length vector without mutating w.
	prev := float64(w[0] * q)
	if !closeAbs(prev, v[0]) {
		return false
	}
	for c := 1; c < k; c++ {
		if !closeAbs(float64(w[c]*q)+float64(w[c-1]*p), v[c]) {
			return false
		}
	}
	return closeAbs(w[k]+float64(w[k-1]*p), v[k])
}
