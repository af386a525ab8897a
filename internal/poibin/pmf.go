package poibin

// Exported truncated-PMF surface for shard-composable tail evaluation
// (DESIGN §14). A shard worker summarizes its slice of a tidset's
// probability vector as the absorbing-truncated PMF of Σ Bernoulli(probs) —
// the same coefficient vector the convolution-tree kernel builds per leaf —
// and a coordinator merges per-shard vectors by truncated convolution in
// shard order. Because the tuples are independent, the merged vector is the
// exact truncated PMF of the full vector; only the IEEE summation order
// differs from the sequential DP, exactly as it does between the DP and
// convolution kernels above.
//
// The vectors come from the Scratch freelist; callers release what they own
// with ReleasePMF. ConvolvePMF never mutates or releases its inputs, so
// memoized vectors can participate in merges safely.

// PMFTrunc returns the PMF of Σ Bernoulli(probs) truncated at k: a vector v
// of length min(len(probs), k)+1 with v[c] = Pr[S = c] for c below the top
// index, and — when len(probs) ≥ k — v[k] absorbing all mass at or above k.
// Shorter vectors carry their exact full PMF (nothing to absorb). A single
// full-length vector's v[k] is bit-identical to the sequential DP's tail
// (TestPMFTruncMatchesDP pins this). The vector comes from the scratch
// freelist; release it with ReleasePMF when done.
func (s *Scratch) PMFTrunc(probs []float64, k int) []float64 {
	if k <= 0 {
		// Everything at or above 0 successes is absorbed: the PMF is the
		// single absorbing bin, and TailOfPMF reads Pr[S ≥ 0] = 1 off it.
		v := s.getBuf(1)[:1]
		v[0] = 1
		return v
	}
	L := len(probs)
	if L > k {
		L = k
	}
	v := s.getBuf(L + 1)[:L+1]
	s.leafPMF(v, probs, k)
	return v
}

// ConvolvePMF convolves two truncated PMFs into a fresh freelist vector of
// length min(la+lb, k)+1 (indices counted from zero), lumping mass at or
// above k into index k when reachable. It is the merge the
// convolution-tree kernel uses (convMerge: one product per row below the
// top cell, suffix tails of b into it), so folding per-shard PMFTrunc
// vectors left-to-right is deterministic. The inputs are read-only and
// remain owned by the caller.
//
// Cells below floor are left zero and not computed: a fold that only reads
// cell k of its last merge passes k minus the most successes the parts
// still to fold can add, since no lower cell can reach k. Every computed
// cell keeps its products and their order, so it is bit-identical to the
// unfloored merge. floor must not exceed k; floor ≤ 0 computes every
// cell.
func (s *Scratch) ConvolvePMF(a, b []float64, k, floor int) []float64 {
	lo := len(a) + len(b) - 2
	if lo > k {
		lo = k
	}
	out := s.getBuf(lo + 1)[:lo+1]
	convMerge(out, a, b, s.sufBuf(len(b)), floor)
	return out
}

// TailOfPMF reads Pr[S ≥ k] off a truncated PMF: the absorbing bin when the
// vector reaches index k, zero otherwise (fewer than k tuples can never
// reach the threshold). The absorbing sum of rounded products can land an
// ulp above 1, exactly as in the DP; clamp so a probability never exceeds 1.
func TailOfPMF(v []float64, k int) float64 {
	if len(v)-1 < k {
		return 0
	}
	t := v[k]
	if t > 1 {
		return 1
	}
	if t < 0 {
		return 0
	}
	return t
}

// ReleasePMF parks a PMFTrunc/ConvolvePMF vector back on the freelist.
func (s *Scratch) ReleasePMF(v []float64) {
	s.putBuf(v)
}
