package exact

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/uncertain"
)

// frequentBruteForce enumerates every itemset over the universe and keeps
// the frequent ones — the reference the real miners are compared against.
func frequentBruteForce(d Dataset, minSup int) []Pattern {
	items := d.Items()
	if len(items) > 16 {
		panic("frequentBruteForce limited to 16 items")
	}
	var out []Pattern
	for mask := 1; mask < 1<<uint(len(items)); mask++ {
		var x itemset.Itemset
		for i, it := range items {
			if mask&(1<<uint(i)) != 0 {
				x = append(x, it)
			}
		}
		if sup := d.Support(x); sup >= minSup {
			out = append(out, Pattern{Items: x.Clone(), Support: sup})
		}
	}
	SortPatterns(out)
	return out
}

func randomDataset(rng *rand.Rand, maxTrans, maxItems int) Dataset {
	n := rng.Intn(maxTrans) + 1
	d := make(Dataset, 0, n)
	for i := 0; i < n; i++ {
		var items []itemset.Item
		for j := 0; j < maxItems; j++ {
			if rng.Float64() < 0.45 {
				items = append(items, itemset.Item(j))
			}
		}
		if len(items) == 0 {
			items = []itemset.Item{itemset.Item(rng.Intn(maxItems))}
		}
		d = append(d, itemset.New(items...))
	}
	return d
}

func TestAprioriAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDataset(rng, 15, 7)
		minSup := rng.Intn(len(d)) + 1
		return PatternsEqual(Apriori(d, minSup), frequentBruteForce(d, minSup))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestFPGrowthAgainstApriori(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDataset(rng, 25, 9)
		minSup := rng.Intn(len(d)) + 1
		return PatternsEqual(FPGrowth(d, minSup), Apriori(d, minSup))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestMineClosedAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDataset(rng, 15, 7)
		minSup := rng.Intn(len(d)) + 1
		return PatternsEqual(MineClosed(d, minSup), ClosedBruteForce(d, minSup))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestClosedAreClosedAndFrequent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		d := randomDataset(rng, 20, 8)
		minSup := rng.Intn(len(d)) + 1
		for _, p := range MineClosed(d, minSup) {
			if p.Support < minSup {
				t.Fatalf("closed pattern %v has support %d < %d", p.Items, p.Support, minSup)
			}
			if d.Support(p.Items) != p.Support {
				t.Fatalf("pattern %v support mismatch", p.Items)
			}
			if !IsClosed(d, p.Items) {
				t.Fatalf("pattern %v is not closed", p.Items)
			}
		}
	}
}

// TestClosedSupportsCoverFrequent: every frequent itemset's support equals
// the max support of a closed superset — the defining property that makes
// the closed set a lossless compression.
func TestClosedSupportsCoverFrequent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		d := randomDataset(rng, 15, 6)
		minSup := rng.Intn(len(d)) + 1
		closed := MineClosed(d, minSup)
		for _, fp := range FPGrowth(d, minSup) {
			found := false
			for _, cp := range closed {
				if itemset.IsSubset(fp.Items, cp.Items) && cp.Support == fp.Support {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("frequent %v (sup %d) has no closed superset of equal support", fp.Items, fp.Support)
			}
		}
	}
}

func TestKnownSmallDataset(t *testing.T) {
	// The exact version of the paper's Table II data: supports are
	// sup(abc)=4, sup(abcd)=2.
	d := FromUncertain(uncertain.PaperExample())
	closed := MineClosed(d, 2)
	if len(closed) != 2 {
		t.Fatalf("closed = %v, want exactly {abc}:4 and {abcd}:2", closed)
	}
	if !itemset.Equal(closed[0].Items, itemset.FromInts(0, 1, 2)) || closed[0].Support != 4 {
		t.Errorf("first closed = %+v", closed[0])
	}
	if !itemset.Equal(closed[1].Items, itemset.FromInts(0, 1, 2, 3)) || closed[1].Support != 2 {
		t.Errorf("second closed = %+v", closed[1])
	}
	// All 15 subsets of abcd are frequent at min_sup 2.
	if fi := FPGrowth(d, 2); len(fi) != 15 {
		t.Errorf("FI count = %d, want 15", len(fi))
	}
}

func TestMinSupFloor(t *testing.T) {
	d := Dataset{itemset.FromInts(1)}
	if got := FPGrowth(d, 0); len(got) != 1 {
		t.Errorf("minSup 0 should be clamped to 1, got %v", got)
	}
	if got := Apriori(d, -5); len(got) != 1 {
		t.Errorf("negative minSup should be clamped, got %v", got)
	}
	if got := MineClosed(d, 0); len(got) != 1 {
		t.Errorf("MineClosed minSup 0 should be clamped, got %v", got)
	}
}

func TestEmptyResults(t *testing.T) {
	d := Dataset{itemset.FromInts(1), itemset.FromInts(2)}
	if got := FPGrowth(d, 3); len(got) != 0 {
		t.Errorf("unreachable minSup should give empty result, got %v", got)
	}
	if got := MineClosed(d, 3); len(got) != 0 {
		t.Errorf("unreachable minSup should give empty closed result, got %v", got)
	}
}

func TestDatasetHelpers(t *testing.T) {
	d := Dataset{itemset.FromInts(1, 2), itemset.FromInts(2, 3)}
	if got := d.Items(); !itemset.Equal(got, itemset.FromInts(1, 2, 3)) {
		t.Errorf("Items = %v", got)
	}
	if got := d.Support(itemset.FromInts(2)); got != 2 {
		t.Errorf("Support(2) = %d", got)
	}
	ts := d.Tidsets()
	if got := ts[2].Indices(); len(got) != 2 {
		t.Errorf("tidset(2) = %v", got)
	}
}
