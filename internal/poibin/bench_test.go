package poibin

import (
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
