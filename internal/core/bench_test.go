package core

import (
	"testing"

	"github.com/probdata/pfcim/internal/bitset"
	"github.com/probdata/pfcim/internal/gen"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/uncertain"
)

// Ablation benchmarks for the design choices DESIGN.md calls out:
// the exact-union cutoff, the pairwise-bound clause cap, parallelism, and
// the two Monte-Carlo estimators (clause-coverage vs whole-world).

func benchDB() *uncertain.DB {
	data := gen.MushroomLike(0.08, 7)
	return gen.AssignGaussian(data, 0.5, 0.5, 8)
}

func benchMine(b *testing.B, mod func(*Options)) {
	db := benchDB()
	o := Options{MinSup: AbsoluteMinSup(db.N(), 0.2), PFCT: 0.8, Seed: 1}
	mod(&o)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(db, o); err != nil {
			b.Fatal(err)
		}
	}
}

// Exact-union cutoff ablation: resolve surviving candidates by
// inclusion–exclusion (engineering default) vs always sampling (the
// paper's cost model).
func BenchmarkCheckingExactUnion(b *testing.B) {
	benchMine(b, func(o *Options) { o.MaxExactClauses = 10 })
}

func BenchmarkCheckingAlwaysSample(b *testing.B) {
	benchMine(b, func(o *Options) { o.MaxExactClauses = -1 })
}

// Parallel first-level mining.
func BenchmarkParallelism1(b *testing.B) {
	benchMine(b, func(o *Options) { o.Parallelism = 1 })
}

func BenchmarkParallelism4(b *testing.B) {
	benchMine(b, func(o *Options) { o.Parallelism = 4 })
}

// Estimator comparison on a single itemset: the Karp–Luby clause-coverage
// sampler inside Mine vs the naive whole-world sampler at a comparable
// target accuracy (ε = 0.1, δ = 0.1).
func BenchmarkEstimatorWorldSampler(b *testing.B) {
	db := uncertain.PaperExample()
	ws := NewWorldSampler(db, 1)
	abc := itemset.FromInts(0, 1, 2)
	n := EstimateSamples(0.1, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.FreqClosedProb(abc, 2, n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimatorKarpLubyPath(b *testing.B) {
	db := uncertain.PaperExample()
	o := Options{MinSup: 2, PFCT: 0.8, Seed: 1, DisableBounds: true, MaxExactClauses: -1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(db, o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildClauses times the extension-event construction of
// Definition 4.1 alone, at the benchmark's Mushroom shape (812 rows, 99
// items, clamped Gaussian probabilities, min_sup 20%): one op builds the
// clauses of every frequent 1- and 2-itemset with no extension records,
// so every item outside X goes through the count and absence screens.
// After the first op every surviving clause's tail is a memo hit.
func BenchmarkBuildClauses(b *testing.B) {
	db := gen.AssignGaussian(gen.MushroomLike(0.1, 1), 0.5, 0.5, 3)
	opts, err := Options{MinSup: AbsoluteMinSup(db.N(), 0.2), PFCT: 0.8}.normalize()
	if err != nil {
		b.Fatal(err)
	}
	m := newMiner(nil, db, opts)
	type node struct {
		x    itemset.Itemset
		tids *bitset.Bitset
	}
	var nodes []node
	for i, e := range m.allItems {
		nodes = append(nodes, node{itemset.Itemset{e}, m.allTids[i]})
		for j := i + 1; j < len(m.allItems); j++ {
			if t := bitset.And(m.allTids[i], m.allTids[j]); t.Count() >= opts.MinSup {
				nodes = append(nodes, node{itemset.Itemset{e, m.allItems[j]}, t})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range nodes {
			clauses, _, _ := m.buildClauses(n.x, n.tids, n.tids.Count(), nil)
			for _, c := range clauses {
				if c.owned {
					m.putBuf(c.b)
				}
			}
		}
	}
}
