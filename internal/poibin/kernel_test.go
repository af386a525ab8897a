package poibin

import (
	"math"
	"math/rand"
	"testing"
)

// refTailDP is the pre-kernel-overhaul Tail implementation, kept as the
// bitwise oracle for the DP path; its products are wrapped in float64(…) so
// no platform fuses them into a multiply-add the production code avoids.
func refTailDP(probs []float64, k int) float64 {
	n := len(probs)
	switch {
	case k <= 0:
		return 1
	case k > n:
		return 0
	}
	dist := make([]float64, k+1)
	dist[0] = 1
	hi := 0
	for _, p := range probs {
		if hi < k {
			hi++
		}
		q := 1 - p
		if hi == k {
			dist[k] += float64(dist[k-1] * p)
		}
		top := hi
		if top > k-1 {
			top = k - 1
		}
		for c := top; c >= 1; c-- {
			dist[c] = float64(dist[c]*q) + float64(dist[c-1]*p)
		}
		dist[0] *= q
	}
	if dist[k] > 1 {
		return 1
	}
	return dist[k]
}

func randProbs(rng *rand.Rand, n int, withDegenerate bool) []float64 {
	probs := make([]float64, n)
	for i := range probs {
		switch {
		case withDegenerate && rng.Intn(5) == 0:
			probs[i] = 1
		case withDegenerate && rng.Intn(7) == 0:
			probs[i] = 0
		default:
			probs[i] = rng.Float64()
		}
	}
	return probs
}

// TestTailBitwiseMatchesReference: the rewritten DP (including the p=1 shift
// fast path) must reproduce the original implementation bit for bit.
func TestTailBitwiseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(100)
		k := rng.Intn(n + 2)
		probs := randProbs(rng, n, true)
		got := Tail(probs, k)
		want := refTailDP(probs, k)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Tail(n=%d, k=%d) = %v, reference %v (bits differ)", trial, n, k, got, want)
		}
	}
}

// TestScratchTailMatchesTail: the scratch path is the same kernel with a
// reused buffer, so it must be bit-identical to the package function —
// including on back-to-back calls where stale buffer contents could leak.
func TestScratchTailMatchesTail(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Scratch
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		k := rng.Intn(n + 2)
		probs := randProbs(rng, n, true)
		got := s.Tail(probs, k)
		want := Tail(probs, k)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Scratch.Tail(n=%d, k=%d) = %v, Tail = %v", trial, n, k, got, want)
		}
	}
}

// TestForcedConvSmallInputIsDP: at or below the leaf size the convolution
// tree is a single DP leaf, so forcing KernelConv must be bit-identical to
// KernelDP. This is what makes the crosscheck representation-equivalence
// suite able to demand byte-identical mining results on its seeded shapes.
func TestForcedConvSmallInputIsDP(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var s Scratch
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(convLeafN)
		k := rng.Intn(n + 2)
		probs := randProbs(rng, n, true)
		dp := s.TailKernel(probs, k, KernelDP)
		conv := s.TailKernel(probs, k, KernelConv)
		if math.Float64bits(dp) != math.Float64bits(conv) {
			t.Fatalf("trial %d: n=%d k=%d: dp=%v conv=%v (bits differ below leaf size)", trial, n, k, dp, conv)
		}
	}
}

// TestKernelAgreementLargeN: above the leaf size the two kernels sum in
// different orders; they must still agree to tight relative tolerance.
func TestKernelAgreementLargeN(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var s Scratch
	for _, n := range []int{convLeafN + 1, 1000, 2048, ConvCrossoverN, ConvCrossoverN + 333} {
		for _, kf := range []float64{0.001, 0.1, 0.45, 0.55, 0.9} {
			k := int(float64(n) * kf)
			if k < 1 {
				k = 1
			}
			probs := randProbs(rng, n, true)
			dp := s.TailKernel(probs, k, KernelDP)
			conv := s.TailKernel(probs, k, KernelConv)
			diff := math.Abs(dp - conv)
			tol := 1e-12 + 1e-9*dp
			if diff > tol {
				t.Fatalf("n=%d k=%d: dp=%v conv=%v diff=%g > tol=%g", n, k, dp, conv, diff, tol)
			}
			if conv < 0 || conv > 1 {
				t.Fatalf("n=%d k=%d: conv tail %v outside [0,1]", n, k, conv)
			}
		}
	}
}

// TestConvDegenerateVectors covers the certain/impossible extraction edge
// cases of the convolution path.
func TestConvDegenerateVectors(t *testing.T) {
	var s Scratch
	n := convLeafN * 3
	allOnes := make([]float64, n)
	for i := range allOnes {
		allOnes[i] = 1
	}
	if got := s.TailKernel(allOnes, n, KernelConv); got != 1 {
		t.Fatalf("all-certain: Pr[S>=n] = %v, want 1", got)
	}
	if got := s.TailKernel(allOnes, n+1, KernelConv); got != 0 {
		t.Fatalf("all-certain: Pr[S>=n+1] = %v, want 0", got)
	}
	allZero := make([]float64, n)
	if got := s.TailKernel(allZero, 1, KernelConv); got != 0 {
		t.Fatalf("all-impossible: Pr[S>=1] = %v, want 0", got)
	}
	if got := s.TailKernel(allZero, 0, KernelConv); got != 1 {
		t.Fatalf("Pr[S>=0] = %v, want 1", got)
	}
	// Mixture: the certain tuples should shift the threshold, leaving the
	// rest to the tree; verify against the DP.
	rng := rand.New(rand.NewSource(19))
	mixed := make([]float64, n)
	for i := range mixed {
		switch i % 3 {
		case 0:
			mixed[i] = 1
		case 1:
			mixed[i] = 0
		default:
			mixed[i] = rng.Float64()
		}
	}
	for _, k := range []int{1, n / 3, n/3 + 5, n / 2, n} {
		dp := s.TailKernel(mixed, k, KernelDP)
		conv := s.TailKernel(mixed, k, KernelConv)
		if math.Abs(dp-conv) > 1e-12+1e-9*dp {
			t.Fatalf("mixed degenerate: k=%d dp=%v conv=%v", k, dp, conv)
		}
	}
}

// TestConvParallelDeterministic: the parallel subtree evaluation must be a
// pure speed knob — repeated runs give identical bits.
func TestConvParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := convParallelN + 1234 // large enough to spawn goroutines
	probs := randProbs(rng, n, true)
	k := n / 5
	var s1 Scratch
	first := s1.TailKernel(probs, k, KernelConv)
	for i := 0; i < 3; i++ {
		var s2 Scratch
		again := s2.TailKernel(probs, k, KernelConv)
		if math.Float64bits(first) != math.Float64bits(again) {
			t.Fatalf("run %d: parallel conv gave %v then %v", i, first, again)
		}
	}
	if first < 0 || first > 1 {
		t.Fatalf("conv tail %v outside [0,1]", first)
	}
}

// TestScratchTailAllocFree: after warm-up, Scratch.Tail must not allocate on
// the DP path — this is the contract the miner's allocs/op budget rests on.
func TestScratchTailAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	probs := randProbs(rng, 600, false)
	var s Scratch
	k := 240
	s.Tail(probs, k) // warm the buffer
	allocs := testing.AllocsPerRun(100, func() {
		s.Tail(probs, k)
	})
	if allocs != 0 {
		t.Fatalf("Scratch.Tail allocated %v times per run, want 0", allocs)
	}
}

// TestScratchConvAllocSteadyState: the convolution path may allocate while
// growing its freelist but must reach a steady state.
func TestScratchConvAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	probs := randProbs(rng, 2048, false)
	var s Scratch
	k := 512
	for i := 0; i < 4; i++ {
		s.TailKernel(probs, k, KernelConv) // warm the freelist
	}
	allocs := testing.AllocsPerRun(50, func() {
		s.TailKernel(probs, k, KernelConv)
	})
	if allocs != 0 {
		t.Fatalf("steady-state conv allocated %v times per run, want 0", allocs)
	}
}

// refConvMerge is the merge's definition written out cell by cell, the
// reference the row-split convMerge must match. Below the top cell it is
// the textbook convolution: every product a[i]·b[j] with i+j < top, i
// ascending then j ascending, added into cell i+j. The top cell absorbs
// Σ_i a[i]·suf(top−i) in i order, where suf(j) sums b[j:] from the high
// end: O(k) dependent adds per merge, not one per absorbed product.
func refConvMerge(out, a, b []float64) {
	for i := range out {
		out[i] = 0
	}
	top := len(out) - 1
	for i := range a {
		for j := range b {
			if i+j < top {
				out[i+j] += float64(a[i] * b[j])
			}
		}
	}
	suf := func(j int) float64 {
		t := 0.0
		for jj := len(b) - 1; jj >= j; jj-- {
			t += b[jj]
		}
		return t
	}
	for i := range a {
		if top-i < len(b) {
			out[top] += float64(a[i] * suf(max(top-i, 0)))
		}
	}
	if out[top] > 1 {
		out[top] = 1
	}
}

// TestConvMergeMatchesTextbook: convMerge's per-row axpy plus suffix-sum
// absorption must reproduce the reference merge bit for bit, for
// truncated and untruncated outputs, rows with zero coefficients,
// single-cell operands, and on every cell at or above a floor.
func TestConvMergeMatchesTextbook(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var s Scratch
	for trial := 0; trial < 3000; trial++ {
		k := 1 + rng.Intn(80)
		a := s.PMFTrunc(randProbs(rng, rng.Intn(100), true), k)
		b := s.PMFTrunc(randProbs(rng, rng.Intn(100), true), k)
		if rng.Intn(4) == 0 {
			a[rng.Intn(len(a))] = 0
		}
		// Every trial also runs at a random floor: cells at or above it
		// must match the textbook bits, cells below it must stay zero.
		floor := rng.Intn(k+1) - rng.Intn(2)*k
		for _, fl := range []int{0, floor} {
			got := s.ConvolvePMF(a, b, k, fl)
			want := make([]float64, len(got))
			refConvMerge(want, a, b)
			for c := range want {
				if c < fl {
					want[c] = 0
				}
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
					t.Fatalf("trial %d k=%d floor=%d len(a)=%d len(b)=%d cell %d: got %v want %v",
						trial, k, fl, len(a), len(b), c, got[c], want[c])
				}
			}
			s.ReleasePMF(got)
		}
		s.ReleasePMF(a)
		s.ReleasePMF(b)
	}
}
