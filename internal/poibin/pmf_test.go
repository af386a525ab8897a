package poibin

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestPMFTruncMatchesDP pins the shard-composability anchor: a single
// full-length truncated PMF's absorbing bin is bit-identical to the
// sequential DP tail, so one shard covering the whole database reproduces
// the unsharded computation exactly.
func TestPMFTruncMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Scratch
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		for _, k := range []int{1, 2, n / 2, n, n + 3} {
			if k < 1 {
				k = 1
			}
			want := s.TailKernel(probs, k, KernelDP)
			v := s.PMFTrunc(probs, k)
			got := TailOfPMF(v, k)
			s.ReleasePMF(v)
			if got != want {
				t.Fatalf("n=%d k=%d: PMFTrunc tail %v != DP tail %v (diff %g)",
					n, k, got, want, got-want)
			}
		}
	}
}

// TestPMFTruncEdgeCases covers the degenerate inputs a shard worker can
// legally receive: empty probability slices (a shard with no matching
// transactions), k = 0 (everything absorbed), and certain/near-certain
// tuples.
func TestPMFTruncEdgeCases(t *testing.T) {
	var s Scratch

	v := s.PMFTrunc(nil, 5)
	if len(v) != 1 || v[0] != 1 {
		t.Fatalf("empty probs: PMF = %v, want [1]", v)
	}
	if got := TailOfPMF(v, 5); got != 0 {
		t.Fatalf("empty probs: Pr[S>=5] = %v, want 0", got)
	}
	s.ReleasePMF(v)

	v = s.PMFTrunc([]float64{0.3, 0.7}, 0)
	if len(v) != 1 || v[0] != 1 {
		t.Fatalf("k=0: PMF = %v, want absorbing [1]", v)
	}
	if got := TailOfPMF(v, 0); got != 1 {
		t.Fatalf("k=0: Pr[S>=0] = %v, want 1", got)
	}
	s.ReleasePMF(v)

	v = s.PMFTrunc([]float64{1, 1, 1}, 2)
	if got := TailOfPMF(v, 2); got != 1 {
		t.Fatalf("all-certain: Pr[S>=2] = %v, want 1", got)
	}
	s.ReleasePMF(v)
}

// TestConvolvePMFSplitFold checks that splitting a probability vector at an
// arbitrary boundary, building per-part truncated PMFs, and convolving them
// reproduces the full tail (within convolution-order tolerance), and that
// repeating the identical fold is bit-for-bit deterministic — the property
// that makes the sharded tail a canonical value.
func TestConvolvePMFSplitFold(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var s Scratch
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(80)
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		k := 1 + rng.Intn(n)
		cut := rng.Intn(n + 1)

		fold := func() float64 {
			a := s.PMFTrunc(probs[:cut], k)
			b := s.PMFTrunc(probs[cut:], k)
			m := s.ConvolvePMF(a, b, k, 0)
			got := TailOfPMF(m, k)
			s.ReleasePMF(a)
			s.ReleasePMF(b)
			s.ReleasePMF(m)
			return got
		}
		got := fold()
		want := s.TailKernel(probs, k, KernelDP)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("n=%d k=%d cut=%d: folded tail %v, DP %v", n, k, cut, got, want)
		}
		if again := fold(); again != got {
			t.Fatalf("n=%d k=%d cut=%d: fold not deterministic: %v then %v", n, k, cut, got, again)
		}
	}
}

// TestConvolvePMFIdentity: convolving with the empty-product PMF [1] must
// leave every coefficient bit-exact, so shards with no matching
// transactions are true no-ops in the fold.
func TestConvolvePMFIdentity(t *testing.T) {
	var s Scratch
	probs := []float64{0.2, 0.9, 0.5, 0.7}
	k := 3
	v := s.PMFTrunc(probs, k)
	one := s.PMFTrunc(nil, k)
	m := s.ConvolvePMF(v, one, k, 0)
	if len(m) != len(v) {
		t.Fatalf("identity merge changed length: %d != %d", len(m), len(v))
	}
	for i := range v {
		if m[i] != v[i] {
			t.Fatalf("identity merge changed coefficient %d: %v != %v", i, m[i], v[i])
		}
	}
	s.ReleasePMF(v)
	s.ReleasePMF(one)
	s.ReleasePMF(m)
}

// bigPMFTrunc is PMFTrunc's vector for the whole of probs, by the
// absorbing-truncated DP in 256-bit arithmetic with q = 1 − p exact: a
// reference whose own rounding is far below the float64 kernels'.
func bigPMFTrunc(probs []float64, k int) []float64 {
	const prec = 256
	L := min(len(probs), k)
	dist := make([]*big.Float, L+1)
	for i := range dist {
		dist[i] = new(big.Float).SetPrec(prec)
	}
	dist[0].SetInt64(1)
	one := new(big.Float).SetPrec(prec).SetInt64(1)
	p, q, t := new(big.Float).SetPrec(prec), new(big.Float).SetPrec(prec), new(big.Float).SetPrec(prec)
	for n, pf := range probs {
		p.SetFloat64(pf)
		q.Sub(one, p)
		hi := min(n+1, L)
		top := hi
		if hi == k {
			dist[k].Add(dist[k], t.Mul(dist[k-1], p))
			top = k - 1
		}
		for c := top; c >= 1; c-- {
			dist[c].Mul(dist[c], q)
			dist[c].Add(dist[c], t.Mul(dist[c-1], p))
		}
		dist[0].Mul(dist[0], q)
	}
	out := make([]float64, L+1)
	for i, d := range dist {
		out[i], _ = d.Float64()
	}
	return out
}

// TestConvolvePMFMatchesBigFloat: every cell of a two-part ConvolvePMF —
// the cells below the top by their axpy rows, the absorbing cell by its
// suffix tails — and the convolution tree's tail over several leaves stay
// within 1e-14 of the exact values.
func TestConvolvePMFMatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var s Scratch
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(150)
		probs := randProbs(rng, rng.Intn(4*k+2), true)
		cut := rng.Intn(len(probs) + 1)
		a, b := s.PMFTrunc(probs[:cut], k), s.PMFTrunc(probs[cut:], k)
		got := s.ConvolvePMF(a, b, k, 0)
		want := bigPMFTrunc(probs, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d cells, exact %d", trial, len(got), len(want))
		}
		for c := range want {
			if d := math.Abs(got[c] - want[c]); d > 1e-14 {
				t.Fatalf("trial %d k=%d n=%d cut=%d cell %d: merged %v, exact %v (diff %g)",
					trial, k, len(probs), cut, c, got[c], want[c], d)
			}
		}
		s.ReleasePMF(a)
		s.ReleasePMF(b)
		s.ReleasePMF(got)
	}
	for _, k := range []int{1, 40, 300, 700} {
		probs := randProbs(rng, 3*convLeafN+77, true)
		got := s.TailKernel(probs, k, KernelConv)
		want := bigPMFTrunc(probs, k)[k]
		if d := math.Abs(got - want); d > 1e-14 {
			t.Fatalf("tree n=%d k=%d: %v, exact %v (diff %g)", len(probs), k, got, want, d)
		}
	}
}
