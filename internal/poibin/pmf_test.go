package poibin

import (
	"math"
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
