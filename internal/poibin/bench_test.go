package poibin

import (
	"math"
	"math/rand"
	"testing"
)

func benchProbs(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = rng.Float64()
	}
	return ps
}

// The exact DP tail is the miner's hottest numeric kernel; the analytic
// bounds are its cheap stand-ins. These
// benchmarks quantify the gap that makes Chernoff-Hoeffding pruning
// (Lemma 4.1) worthwhile.

func BenchmarkTailExactN1000K300(b *testing.B) {
	probs := benchProbs(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tail(probs, 300)
	}
}

func BenchmarkTailExactN1000K10(b *testing.B) {
	probs := benchProbs(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tail(probs, 10)
	}
}

func BenchmarkTailUpperBoundN1000(b *testing.B) {
	probs := benchProbs(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TailUpperBound(probs, 600)
	}
}

func BenchmarkCondSamplerBuildN500K150(b *testing.B) {
	probs := benchProbs(500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewCondSampler(probs, 150); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCondSamplerDrawN500K150(b *testing.B) {
	probs := benchProbs(500)
	cs, err := NewCondSampler(probs, 150)
	if err != nil {
		b.Fatal(err)
	}
	// No position carries a mask bit, so no draw can settle the verdict
	// early: every Covers call walks all 500 positions, the worst case.
	rng := NewSM64(2)
	masks := make([]uint64, 500)
	want, acc := []uint64{1}, make([]uint64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Covers(rng, masks, want, acc)
	}
}

// gaussianProbs draws 64 vectors of n existence probabilities the way the
// benchmark datasets assign them (gen.AssignGaussian): Gaussian(mean,
// variance), clamped to [0.01, 1], so a share of the tuples is certain. A
// benchmark cycles through the vectors: a mine never repeats one, and a
// single vector run again and again lets the branch predictor learn where
// its certain tuples are.
func gaussianProbs(n int, mean, variance float64) [64][]float64 {
	rng := rand.New(rand.NewSource(1))
	var vs [64][]float64
	for j := range vs {
		vs[j] = make([]float64, n)
		for i := range vs[j] {
			vs[j][i] = min(max(rng.NormFloat64()*math.Sqrt(variance)+mean, 0.01), 1)
		}
	}
	return vs
}

// The next three are the exact-tail shapes the perfbench mine classes
// spend their DP time on: a Quest-like tail of the sparse class (about a
// quarter of its tuples certain), a Mushroom-like tail of the dense and
// sweep classes, and one shard's PMF of the sharded class (812 rows over
// four shards), which is shorter than its threshold and so never absorbs.

// tailSink keeps the benchmarked tails live.
var tailSink float64

func BenchmarkTailSparseN344K240(b *testing.B) {
	vs := gaussianProbs(344, 0.8, 0.1)
	var s Scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tailSink = s.Tail(vs[i%len(vs)], 240)
	}
}

func BenchmarkTailDenseN418K162(b *testing.B) {
	vs := gaussianProbs(418, 0.5, 0.5)
	var s Scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tailSink = s.Tail(vs[i%len(vs)], 162)
	}
}

// The stripped twins are the same tails as the miner computes them: each
// vector without its certain tuples, at the threshold less its certain
// count.

func BenchmarkTailSparseStripped(b *testing.B) {
	benchStripped(b, gaussianProbs(344, 0.8, 0.1), 240)
}

func BenchmarkTailDenseStripped(b *testing.B) {
	benchStripped(b, gaussianProbs(418, 0.5, 0.5), 162)
}

func benchStripped(b *testing.B, vs [64][]float64, k int) {
	var us [64][]float64
	var ks [64]int
	for j, v := range vs {
		u, c := stripCertain(v)
		us[j], ks[j] = u, k-c
	}
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(us)
		tailSink = s.Tail(us[j], ks[j])
	}
}

func BenchmarkShardLeafPMFN104K162(b *testing.B) {
	vs := gaussianProbs(104, 0.5, 0.5)
	var s Scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ReleasePMF(s.PMFTrunc(vs[i%len(vs)], 162))
	}
}
