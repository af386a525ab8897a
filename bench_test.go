package pfcim_test

// One testing.B benchmark per table/figure of the paper's evaluation. Each
// benchmark runs one representative configuration of the corresponding
// experiment; the full sweeps (all x-axis points, all series) are produced
// by cmd/experiments. Run with:
//
//	go test -bench=. -benchmem
//
// Dataset sizes here are the same reproduction scale the experiment
// harness defaults to (Mushroom-like 0.1 → 812 rows, Quest 0.02 → 600
// rows); EXPERIMENTS.md records a full reference run. The exception is
// BenchmarkQuest1M, a million-transaction stress mine that takes seconds
// per op.

import (
	"runtime"
	"sync"
	"testing"

	pfcim "github.com/probdata/pfcim"
)

// benchData lazily builds and caches the two benchmark workloads.
var benchData struct {
	once     sync.Once
	mushroom *pfcim.Database // Gaussian(0.5, 0.5), the paper's Mushroom regime
	mush81   *pfcim.Database // Gaussian(0.8, 0.1), the Fig. 10(a) regime
	mushRaw  []pfcim.Itemset
	quest    *pfcim.Database // Gaussian(0.8, 0.1), the paper's Quest regime
}

func load(b *testing.B) {
	benchData.once.Do(func() {
		benchData.mushRaw = pfcim.GenerateMushroomLike(0.1, 42)
		benchData.mushroom = pfcim.AssignGaussian(benchData.mushRaw, 0.5, 0.5, 43)
		benchData.mush81 = pfcim.AssignGaussian(benchData.mushRaw, 0.8, 0.1, 44)
		quest := pfcim.GenerateQuest(pfcim.QuestT20I10D30KP40(0.02, 45))
		benchData.quest = pfcim.AssignGaussian(quest, 0.8, 0.1, 46)
	})
	b.ReportAllocs()
}

// mineOpts is the paper-faithful configuration: final checking always via
// the ApproxFCP sampler (as the paper's cost model), defaults ε = δ = 0.1,
// pfct = 0.8.
func mineOpts(db *pfcim.Database, rel float64) pfcim.Options {
	return pfcim.Options{
		MinSup:          pfcim.AbsoluteMinSup(db.N(), rel),
		PFCT:            0.8,
		Seed:            1,
		MaxExactClauses: -1,
	}
}

func mustMine(b *testing.B, db *pfcim.Database, o pfcim.Options) *pfcim.Result {
	res, err := pfcim.Mine(db, o)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// --- Table VIII: dataset characteristics (generation + stats cost) -------

func BenchmarkTable8DatasetStats(b *testing.B) {
	load(b)
	for i := 0; i < b.N; i++ {
		_ = benchData.mushroom.Stats()
		_ = benchData.quest.Stats()
	}
}

// --- Fig. 5: MPFCI vs Naive ----------------------------------------------

func BenchmarkFig5MushroomMPFCI(b *testing.B) {
	load(b)
	o := mineOpts(benchData.mushroom, 0.2)
	for i := 0; i < b.N; i++ {
		mustMine(b, benchData.mushroom, o)
	}
}

// BenchmarkFig5MushroomMPFCIParallel runs the same workload on the
// work-stealing scheduler with one worker per available CPU. Results are
// byte-identical to the serial run; on a single-CPU host this measures the
// scheduler's overhead rather than a speedup.
func BenchmarkFig5MushroomMPFCIParallel(b *testing.B) {
	load(b)
	o := mineOpts(benchData.mushroom, 0.2)
	o.Parallelism = runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		mustMine(b, benchData.mushroom, o)
	}
}

func BenchmarkFig5MushroomNaive(b *testing.B) {
	load(b)
	o := mineOpts(benchData.mushroom, 0.2)
	for i := 0; i < b.N; i++ {
		if _, err := pfcim.MineNaive(benchData.mushroom, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5QuestMPFCI(b *testing.B) {
	load(b)
	o := mineOpts(benchData.quest, 0.4)
	for i := 0; i < b.N; i++ {
		mustMine(b, benchData.quest, o)
	}
}

func BenchmarkFig5QuestNaive(b *testing.B) {
	load(b)
	o := mineOpts(benchData.quest, 0.4)
	for i := 0; i < b.N; i++ {
		if _, err := pfcim.MineNaive(benchData.quest, o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 6: pruning ablations vs min_sup --------------------------------

func benchVariant(b *testing.B, db *pfcim.Database, rel float64, mod func(*pfcim.Options)) {
	load(b)
	o := mineOpts(db, rel)
	mod(&o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustMine(b, db, o)
	}
}

func BenchmarkFig6MushroomMPFCI(b *testing.B) {
	benchVariant(b, mushroomDB(b), 0.3, func(*pfcim.Options) {})
}

func BenchmarkFig6MushroomNoCH(b *testing.B) {
	benchVariant(b, mushroomDB(b), 0.3, func(o *pfcim.Options) { o.DisableCH = true })
}

func BenchmarkFig6MushroomNoSuper(b *testing.B) {
	benchVariant(b, mushroomDB(b), 0.3, func(o *pfcim.Options) { o.DisableSuperset = true })
}

func BenchmarkFig6MushroomNoSub(b *testing.B) {
	benchVariant(b, mushroomDB(b), 0.3, func(o *pfcim.Options) { o.DisableSubset = true })
}

func BenchmarkFig6MushroomNoBound(b *testing.B) {
	benchVariant(b, mushroomDB(b), 0.3, func(o *pfcim.Options) { o.DisableBounds = true })
}

func BenchmarkFig6QuestMPFCI(b *testing.B) {
	benchVariant(b, questDB(b), 0.4, func(*pfcim.Options) {})
}

func BenchmarkFig6QuestNoBound(b *testing.B) {
	benchVariant(b, questDB(b), 0.4, func(o *pfcim.Options) { o.DisableBounds = true })
}

// mushroomDB and questDB give the variant benchmarks access to the
// lazily-loaded databases.
func mushroomDB(b *testing.B) *pfcim.Database {
	load(b)
	return benchData.mushroom
}

func questDB(b *testing.B) *pfcim.Database {
	load(b)
	return benchData.quest
}

// --- Fig. 7: effect of pfct ----------------------------------------------

func BenchmarkFig7MushroomPfct05(b *testing.B) {
	benchVariant(b, mushroomDB(b), 0.4, func(o *pfcim.Options) { o.PFCT = 0.5 })
}

func BenchmarkFig7MushroomPfct09(b *testing.B) {
	benchVariant(b, mushroomDB(b), 0.4, func(o *pfcim.Options) { o.PFCT = 0.9 })
}

// --- Fig. 8: effect of ε (NoBound samples; its cost is O(1/ε²)) ----------

func BenchmarkFig8NoBoundEps030(b *testing.B) {
	benchVariant(b, mushroomDB(b), 0.2, func(o *pfcim.Options) {
		o.DisableBounds = true
		o.Epsilon = 0.30
	})
}

func BenchmarkFig8NoBoundEps010(b *testing.B) {
	benchVariant(b, mushroomDB(b), 0.2, func(o *pfcim.Options) {
		o.DisableBounds = true
		o.Epsilon = 0.10
	})
}

// --- Fig. 9: effect of δ (cost grows as ln(2/δ)) --------------------------

func BenchmarkFig9NoBoundDelta030(b *testing.B) {
	benchVariant(b, mushroomDB(b), 0.2, func(o *pfcim.Options) {
		o.DisableBounds = true
		o.Delta = 0.30
	})
}

func BenchmarkFig9NoBoundDelta005(b *testing.B) {
	benchVariant(b, mushroomDB(b), 0.2, func(o *pfcim.Options) {
		o.DisableBounds = true
		o.Delta = 0.05
	})
}

// --- Fig. 10: compression quality (the four result-set sizes) ------------

func BenchmarkFig10FrequentExact(b *testing.B) {
	load(b)
	d := pfcim.ExactDataset(benchData.mushRaw)
	ms := pfcim.AbsoluteMinSup(len(d), 0.2)
	for i := 0; i < b.N; i++ {
		if got := pfcim.MineFrequentExact(d, ms); len(got) == 0 {
			b.Fatal("no frequent itemsets")
		}
	}
}

func BenchmarkFig10ClosedExact(b *testing.B) {
	load(b)
	d := pfcim.ExactDataset(benchData.mushRaw)
	ms := pfcim.AbsoluteMinSup(len(d), 0.2)
	for i := 0; i < b.N; i++ {
		if got := pfcim.MineClosedExact(d, ms); len(got) == 0 {
			b.Fatal("no closed itemsets")
		}
	}
}

func BenchmarkFig10ProbabilisticFrequent(b *testing.B) {
	load(b)
	ms := pfcim.AbsoluteMinSup(benchData.mush81.N(), 0.2)
	for i := 0; i < b.N; i++ {
		if got, err := pfcim.MineFrequent(benchData.mush81, pfcim.FrequentOptions{MinSup: ms, PFT: 0.8}); err != nil || len(got) == 0 {
			b.Fatalf("no probabilistic frequent itemsets (err %v)", err)
		}
	}
}

func BenchmarkFig10ProbabilisticClosed(b *testing.B) {
	load(b)
	o := mineOpts(benchData.mush81, 0.2)
	for i := 0; i < b.N; i++ {
		if got := mustMine(b, benchData.mush81, o); len(got.Itemsets) == 0 {
			b.Fatal("no probabilistic frequent closed itemsets")
		}
	}
}

// --- Fig. 11: approximation quality (raw estimator run) ------------------

func BenchmarkFig11SamplerRun(b *testing.B) {
	load(b)
	o := mineOpts(benchData.mushroom, 0.2)
	o.DisableBounds = true
	for i := 0; i < b.N; i++ {
		mustMine(b, benchData.mushroom, o)
	}
}

// --- Fig. 12: DFS vs BFS frameworks --------------------------------------

func BenchmarkFig12MushroomDFS(b *testing.B) {
	benchVariant(b, mushroomDB(b), 0.3, func(*pfcim.Options) {})
}

func BenchmarkFig12MushroomBFS(b *testing.B) {
	benchVariant(b, mushroomDB(b), 0.3, func(o *pfcim.Options) { o.Search = pfcim.BFS })
}

func BenchmarkFig12QuestDFS(b *testing.B) {
	benchVariant(b, questDB(b), 0.4, func(*pfcim.Options) {})
}

func BenchmarkFig12QuestBFS(b *testing.B) {
	benchVariant(b, questDB(b), 0.4, func(o *pfcim.Options) { o.Search = pfcim.BFS })
}

// --- Tables I–III / Example 1.2: the running example end to end ----------

func BenchmarkExample12PaperExample(b *testing.B) {
	load(b)
	db := pfcim.PaperExample()
	o := pfcim.Options{MinSup: 2, PFCT: 0.8, Seed: 1}
	for i := 0; i < b.N; i++ {
		res := mustMine(b, db, o)
		if len(res.Itemsets) != 2 {
			b.Fatalf("paper example result drifted: %d itemsets", len(res.Itemsets))
		}
	}
}

// --- Large-n sparse stress: quest-1m -------------------------------------

// quest1M lazily builds the million-transaction workload, apart from
// benchData so the other benchmarks never pay for it.
var quest1M struct {
	once sync.Once
	db   *pfcim.Database
}

// BenchmarkQuest1M mines the sparse million-transaction Quest dataset
// (T10I4D1MP2K under Gaussian(0.8, 0.1)) serially at relative min_sup 0.01.
// It is the only million-transaction mine, and the one workload that runs
// the divide-and-conquer tail kernel and compressed tidsets inside a real
// mine. Building the dataset takes seconds, so run it on its own:
//
//	go test -run '^$' -bench BenchmarkQuest1M -benchtime 1x .
func BenchmarkQuest1M(b *testing.B) {
	quest1M.once.Do(func() {
		quest := pfcim.GenerateQuest(pfcim.QuestT10I4D1MP2K(1, 47))
		quest1M.db = pfcim.AssignGaussian(quest, 0.8, 0.1, 48)
	})
	b.ReportAllocs()
	o := mineOpts(quest1M.db, 0.01)
	o.Parallelism = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustMine(b, quest1M.db, o)
	}
}
