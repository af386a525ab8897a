package pfim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/uncertain"
	"github.com/probdata/pfcim/internal/world"
)

// allItemsets returns every non-empty itemset over db's items.
func allItemsets(db *uncertain.DB) []itemset.Itemset {
	items := db.Items()
	var out []itemset.Itemset
	for mask := 1; mask < 1<<uint(len(items)); mask++ {
		var x itemset.Itemset
		for i, it := range items {
			if mask&(1<<uint(i)) != 0 {
				x = append(x, it)
			}
		}
		out = append(out, x)
	}
	return out
}

// mineBruteForce enumerates every itemset and computes its frequent
// probability by possible-world enumeration.
func mineBruteForce(db *uncertain.DB, minSup int, pft float64) []Itemset {
	var out []Itemset
	for _, x := range allItemsets(db) {
		prF, err := world.FreqProb(db, x, minSup)
		if err != nil {
			panic(err)
		}
		if prF > pft {
			out = append(out, Itemset{Items: x.Clone(), FreqProb: prF})
		}
	}
	sort.Slice(out, func(i, j int) bool { return itemset.Compare(out[i].Items, out[j].Items) < 0 })
	return out
}

func randomDB(rng *rand.Rand, maxN, maxItems int) *uncertain.DB {
	n := rng.Intn(maxN) + 1
	trans := make([]uncertain.Transaction, 0, n)
	for i := 0; i < n; i++ {
		var items []itemset.Item
		for j := 0; j < maxItems; j++ {
			if rng.Float64() < 0.5 {
				items = append(items, itemset.Item(j))
			}
		}
		if len(items) == 0 {
			items = []itemset.Item{itemset.Item(rng.Intn(maxItems))}
		}
		trans = append(trans, uncertain.Transaction{
			Items: itemset.New(items...),
			Prob:  rng.Float64()*0.98 + 0.01,
		})
	}
	return uncertain.MustNewDB(trans)
}

func TestMineAgainstOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng, 8, 5)
		minSup := rng.Intn(3) + 1
		pft := []float64{0.3, 0.5, 0.8}[rng.Intn(3)]
		got := Mine(db, Options{MinSup: minSup, PFT: pft})
		want := mineBruteForce(db, minSup, pft)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if !itemset.Equal(got[i].Items, want[i].Items) {
				return false
			}
			if math.Abs(got[i].FreqProb-want[i].FreqProb) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMinePaperExample(t *testing.T) {
	// The paper's Example 1.1: 15 probabilistic frequent itemsets at
	// min_sup = 2, pft = 0.8; seven with Pr_F ≈ 0.9726, eight with 0.81.
	db := uncertain.PaperExample()
	got := Mine(db, Options{MinSup: 2, PFT: 0.8})
	if len(got) != 15 {
		t.Fatalf("got %d PFIs, want 15", len(got))
	}
	hi, lo := 0, 0
	for _, p := range got {
		switch {
		case math.Abs(p.FreqProb-0.9726) < 1e-9:
			hi++
		case math.Abs(p.FreqProb-0.81) < 1e-9:
			lo++
		default:
			t.Errorf("%v has unexpected Pr_F %v", p.Items, p.FreqProb)
		}
	}
	if hi != 7 || lo != 8 {
		t.Errorf("got %d itemsets at 0.9726 and %d at 0.81, want 7 and 8", hi, lo)
	}
}

func TestMineCHConsistency(t *testing.T) {
	// Disabling the Chernoff-Hoeffding filter must not change the result.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		db := randomDB(rng, 10, 6)
		minSup := rng.Intn(3) + 1
		a := Mine(db, Options{MinSup: minSup, PFT: 0.6})
		b := Mine(db, Options{MinSup: minSup, PFT: 0.6, DisableCH: true})
		if len(a) != len(b) {
			t.Fatalf("CH filter changed the result: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if !itemset.Equal(a[i].Items, b[i].Items) {
				t.Fatalf("CH filter changed itemset %d", i)
			}
		}
	}
}

func TestAntiMonotonicity(t *testing.T) {
	// Every subset of a returned itemset must also be returned (frequent
	// probability is anti-monotone).
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		db := randomDB(rng, 10, 5)
		res := Mine(db, Options{MinSup: 2, PFT: 0.5})
		keys := map[string]bool{}
		for _, p := range res {
			keys[p.Items.Key()] = true
		}
		for _, p := range res {
			for _, drop := range p.Items {
				sub := p.Items.Remove(drop)
				if sub.Len() > 0 && !keys[sub.Key()] {
					t.Fatalf("subset %v of result %v missing", sub, p.Items)
				}
			}
		}
	}
}

func TestExpectedSupportMine(t *testing.T) {
	db := uncertain.PaperExample()
	// Expected supports: a,b,c → 3.1; d → 1.8.
	res := ExpectedSupportMine(db, 2.0)
	for _, p := range res {
		if p.Items.Contains(3) {
			t.Errorf("%v (exp sup %v) should be below the 2.0 threshold", p.Items, p.ExpectedSupport)
		}
	}
	if len(res) != 7 {
		t.Errorf("got %d expected-support frequent itemsets, want 7 (non-empty subsets of abc)", len(res))
	}
	// Lower threshold admits d.
	res = ExpectedSupportMine(db, 1.5)
	if len(res) != 15 {
		t.Errorf("got %d, want all 15 subsets", len(res))
	}
	// Anti-monotonicity of expected support.
	keys := map[string]bool{}
	for _, p := range res {
		keys[p.Items.Key()] = true
	}
	for _, p := range res {
		for _, drop := range p.Items {
			sub := p.Items.Remove(drop)
			if sub.Len() > 0 && !keys[sub.Key()] {
				t.Fatalf("expected-support subset %v missing", sub)
			}
		}
	}
}

// The expected-support model is the one of UF-growth [15] and UH-mine;
// ExpectedSupportMine is this package's miner for it. The tests below pin
// that model's result sets on ExpectedSupportMine.

// checkExpectedSupportOracle checks ExpectedSupportMine on random databases
// over at most maxItems items against a direct enumeration: every itemset
// over the database's items, its expected support the sum of the
// probabilities of the tuples containing it.
func checkExpectedSupportOracle(t *testing.T, maxItems int) {
	t.Helper()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng, 12, maxItems)
		minExp := rng.Float64()*3 + 0.5
		var want []Itemset
		for _, x := range allItemsets(db) {
			count, exp := 0, 0.0
			for _, tr := range db.Transactions() {
				if itemset.IsSubset(x, tr.Items) {
					count++
					exp += tr.Prob
				}
			}
			if exp >= minExp {
				want = append(want, Itemset{Items: x, Count: count, ExpectedSupport: exp})
			}
		}
		sort.Slice(want, func(i, j int) bool { return itemset.Compare(want[i].Items, want[j].Items) < 0 })
		got := ExpectedSupportMine(db, minExp)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if !itemset.Equal(got[i].Items, want[i].Items) || got[i].Count != want[i].Count {
				return false
			}
			if math.Abs(got[i].ExpectedSupport-want[i].ExpectedSupport) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestUFGrowthEqualsExpectedSupportMine: UF-growth's result set, computed
// by enumeration, equals ExpectedSupportMine's on databases of ≤ 6 items.
func TestUFGrowthEqualsExpectedSupportMine(t *testing.T) {
	checkExpectedSupportOracle(t, 6)
}

// TestUHMineEqualsExpectedSupportMine: as above on sparser databases of
// ≤ 8 items, the shape UH-mine's hyper-structure was built for.
func TestUHMineEqualsExpectedSupportMine(t *testing.T) {
	checkExpectedSupportOracle(t, 8)
}

func TestUFGrowthPaperExample(t *testing.T) {
	db := uncertain.PaperExample()
	res := ExpectedSupportMine(db, 2.0)
	// Every subset of abc is contained in all four tuples: 0.9+0.6+0.7+0.9.
	// Anything with d has 1.8, so exactly the 7 non-empty subsets of abc
	// qualify.
	if len(res) != 7 {
		t.Fatalf("found %d itemsets, want 7: %v", len(res), res)
	}
	for _, p := range res {
		if math.Abs(p.ExpectedSupport-3.1) > 1e-9 {
			t.Errorf("%v expected support %v, want 3.1", p.Items, p.ExpectedSupport)
		}
	}
}

func TestUFGrowthEmptyResult(t *testing.T) {
	db := uncertain.PaperExample()
	if res := ExpectedSupportMine(db, 100); len(res) != 0 {
		t.Errorf("unreachable threshold should yield nothing, got %v", res)
	}
}

func TestUFGrowthCertainDataMatchesExactCounts(t *testing.T) {
	// With all probabilities 1, expected support equals exact support, so
	// the result must reproduce exact frequent itemset counts.
	certain := uncertain.MustNewDB([]uncertain.Transaction{
		{Items: itemset.FromInts(0, 1, 2), Prob: 1},
		{Items: itemset.FromInts(0, 1), Prob: 1},
		{Items: itemset.FromInts(1, 2), Prob: 1},
	})
	exactSup := map[string]float64{"1": 3, "0": 2, "2": 2, "0 1": 2, "1 2": 2}
	got := ExpectedSupportMine(certain, 2)
	if len(got) != len(exactSup) {
		t.Fatalf("got %d itemsets %v, want %d", len(got), got, len(exactSup))
	}
	for _, p := range got {
		if w, ok := exactSup[p.Items.Key()]; !ok || math.Abs(p.ExpectedSupport-w) > 1e-12 {
			t.Errorf("unexpected result %v (%v)", p.Items, p.ExpectedSupport)
		}
	}
}

func TestUHMinePaperExample(t *testing.T) {
	db := uncertain.PaperExample()
	res := ExpectedSupportMine(db, 2.0)
	want := []itemset.Itemset{
		itemset.FromInts(0), itemset.FromInts(0, 1), itemset.FromInts(0, 1, 2),
		itemset.FromInts(0, 2), itemset.FromInts(1), itemset.FromInts(1, 2),
		itemset.FromInts(2),
	}
	if len(res) != len(want) {
		t.Fatalf("found %d itemsets, want 7 (non-empty subsets of abc): %v", len(res), res)
	}
	for i, p := range res {
		if !itemset.Equal(p.Items, want[i]) || p.Count != 4 {
			t.Errorf("itemset %d = %v (count %d), want %v in all 4 tuples", i, p.Items, p.Count, want[i])
		}
	}
}

func TestMineMinSupClamp(t *testing.T) {
	db := uncertain.PaperExample()
	a := Mine(db, Options{MinSup: 0, PFT: 0.5})
	b := Mine(db, Options{MinSup: 1, PFT: 0.5})
	if len(a) != len(b) {
		t.Errorf("minSup 0 should clamp to 1: %d vs %d", len(a), len(b))
	}
}

func TestCountMatchesMine(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 12, 6)
		minSup := rng.Intn(3) + 1
		pft := []float64{0.3, 0.6, 0.8}[rng.Intn(3)]
		opts := Options{MinSup: minSup, PFT: pft}
		want := len(Mine(db, opts))
		if got := Count(db, opts); got != want {
			t.Fatalf("trial %d: Count = %d, Mine found %d", trial, got, want)
		}
	}
}

func TestMaximalFrequent(t *testing.T) {
	db := uncertain.PaperExample()
	maxes := MaximalFrequent(db, Options{MinSup: 2, PFT: 0.8})
	// All 15 PFIs are subsets of abcd, so abcd is the single maximal PFI.
	if len(maxes) != 1 || !itemset.Equal(maxes[0], itemset.FromInts(0, 1, 2, 3)) {
		t.Fatalf("maximal PFIs = %v, want [{a b c d}]", maxes)
	}
}

func TestMaximalCoverProperty(t *testing.T) {
	// Every PFI is a subset of some maximal PFI; no maximal PFI is a
	// proper subset of another.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		db := randomDB(rng, 10, 6)
		opts := Options{MinSup: 2, PFT: 0.5}
		all := Mine(db, opts)
		maxes := MaximalFrequent(db, opts)
		for _, p := range all {
			found := false
			for _, m := range maxes {
				if itemset.IsSubset(p.Items, m) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("PFI %v not covered by any maximal itemset %v", p.Items, maxes)
			}
		}
		for i, a := range maxes {
			for j, b := range maxes {
				if i != j && itemset.IsProperSubset(a, b) {
					t.Fatalf("maximal itemset %v is a subset of %v", a, b)
				}
			}
		}
	}
}
