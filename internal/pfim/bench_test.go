package pfim

import (
	"testing"

	"github.com/probdata/pfcim/internal/gen"
	"github.com/probdata/pfcim/internal/uncertain"
)

// Miner benchmarks: the probabilistic frequent itemset DFS and the
// expected-support miner on the same Mushroom-like input.

func benchDB() *uncertain.DB {
	data := gen.MushroomLike(0.08, 9)
	return gen.AssignGaussian(data, 0.8, 0.1, 10)
}

func BenchmarkMineBottomUp(b *testing.B) {
	db := benchDB()
	opts := Options{MinSup: db.N() * 3 / 10, PFT: 0.8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := Mine(db, opts); len(got) == 0 {
			b.Fatal("no itemsets")
		}
	}
}

func BenchmarkExpectedSupportTidsets(b *testing.B) {
	db := benchDB()
	minExp := float64(db.N()) * 0.25
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ExpectedSupportMine(db, minExp); len(got) == 0 {
			b.Fatal("no itemsets")
		}
	}
}
