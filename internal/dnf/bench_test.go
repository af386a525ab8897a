package dnf

import (
	"math/rand"

	"github.com/probdata/pfcim/internal/poibin"
	"testing"

	"github.com/probdata/pfcim/internal/bitset"
)

// These benchmarks quantify the design trade-off behind
// core.Options.MaxExactClauses: inclusion–exclusion is exponential in the
// clause count but exact; Karp–Luby is linear in the sample budget. The
// crossover motivates the default cutoff of 10 clauses.

// benchSystem builds a system with exactly m clauses over a 60-tuple base.
func benchSystem(m int) *System {
	rng := rand.New(rand.NewSource(3))
	n := 60
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = rng.Float64()*0.9 + 0.05
	}
	base := bitset.New(n)
	base.SetAll()
	clauses := make([]*bitset.Bitset, m)
	for ci := range clauses {
		b := base.Clone()
		base.ForEach(func(tid int) bool {
			if rng.Float64() < 0.3 {
				b.Clear(tid)
			}
			return true
		})
		clauses[ci] = b
	}
	s, err := NewSystem(base, probs, 20, clauses)
	if err != nil {
		panic(err)
	}
	return s
}

func BenchmarkExactUnionM8(b *testing.B) {
	s := benchSystem(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExactUnion(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactUnionM14(b *testing.B) {
	s := benchSystem(14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExactUnion(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeSumsM14(b *testing.B) {
	s := benchSystem(14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ComputeSums()
	}
}

func BenchmarkKarpLubyM14Eps01(b *testing.B) {
	s := benchSystem(14)
	sums := s.ComputeSums()
	n := SampleSize(14, 0.1, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.KarpLuby(poibin.NewSM64(uint64(i)), sums.Clause, n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnionBoundsM14(b *testing.B) {
	s := benchSystem(14)
	sums := s.ComputeSums()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UnionBounds(sums)
	}
}

// minedSystem is a clause system at the shape perfbench's Mushroom classes
// sample: 481 tuples with the paper's Gaussian probabilities clamped to
// [0.01, 1], MinSup 95, and three clauses, each the base less 3 uncertain
// tuples, so each clause holds 478 tuples and a walked clause has 3 to 6
// escape positions.
func minedSystem() *System {
	rng := rand.New(rand.NewSource(7))
	const n, m, dropped = 481, 3, 3
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = min(1, max(0.01, 0.5+0.5*rng.NormFloat64()))
	}
	base := bitset.New(n)
	base.SetAll()
	clauses := make([]*bitset.Bitset, m)
	for ci := range clauses {
		b := base.Clone()
		for left := dropped; left > 0; {
			if t := rng.Intn(n); b.Test(t) && probs[t] < 1 {
				b.Clear(t)
				left--
			}
		}
		clauses[ci] = b
	}
	s, err := NewSystem(base, probs, 95, clauses)
	if err != nil {
		panic(err)
	}
	return s
}

// BenchmarkKarpLubyMined runs the sampler on minedSystem at the miner's
// default ε = δ = 0.1.
func BenchmarkKarpLubyMined(b *testing.B) {
	s := minedSystem()
	sums := s.ComputeSums()
	n := SampleSize(s.M(), 0.1, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.KarpLuby(poibin.NewSM64(uint64(i)), sums.Clause, n); err != nil {
			b.Fatal(err)
		}
	}
}
