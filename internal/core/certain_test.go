package core

import (
	"encoding/json"
	"math"
	"testing"

	"github.com/probdata/pfcim/internal/gen"
	"github.com/probdata/pfcim/internal/poibin"
	"github.com/probdata/pfcim/internal/uncertain"
)

// certainHeavyDBs are clamped-Gaussian databases in the paper's (mean 0.5,
// variance 0.5) regime, where about a quarter of the tuples are certain:
// one dense, one sparse enough that the auto policy compresses its rare
// items' tidsets. Each comes with the support thresholds it is mined at.
func certainHeavyDBs() []struct {
	db      *uncertain.DB
	minSups []int
} {
	return []struct {
		db      *uncertain.DB
		minSups []int
	}{
		{gen.AssignGaussian(gen.Quest(gen.QuestConfig{NumTrans: 120, NumItems: 12, AvgTransLen: 7, AvgPatternLen: 4, Seed: 3}), 0.5, 0.5, 3), []int{12, 24}},
		{gen.AssignGaussian(gen.Quest(gen.QuestConfig{NumTrans: 1500, NumItems: 100, AvgTransLen: 3, AvgPatternLen: 2, Seed: 5}), 0.5, 0.5, 5), []int{8, 20}},
	}
}

// TestCertainTuplesCHNeutral mines certain-heavy databases with the
// Chernoff–Hoeffding rule on and off. The miner counts certain tuples
// rather than gathering them, so the rule's mean is c + Σ uncertain p,
// summed in another order than over the full vector; a flip in its low
// bits may only move a target between CHPruned and FreqPruned, since both
// imply Pr_F ≤ pfct. The itemsets must be bit-identical, and every
// reported Pr_F must agree with the full-vector tail to 1e-12.
func TestCertainTuplesCHNeutral(t *testing.T) {
	for i, c := range certainHeavyDBs() {
		db := c.db
		if db.Stats().CertainTuples == 0 {
			t.Fatalf("db %d: no certain tuples", i)
		}
		idx := db.Index()
		for _, minSup := range c.minSups {
			for _, pfct := range []float64{0.2, 0.6, 0.9} {
				for _, mode := range []TidsetMode{TidsetsAuto, TidsetsDense, TidsetsCompressed} {
					opts := Options{MinSup: minSup, PFCT: pfct, Tidsets: mode}
					on, err := Mine(db, opts)
					if err != nil {
						t.Fatal(err)
					}
					opts.DisableCH = true
					off, err := Mine(db, opts)
					if err != nil {
						t.Fatal(err)
					}
					a, _ := json.Marshal(on.Itemsets)
					b, _ := json.Marshal(off.Itemsets)
					if string(a) != string(b) {
						t.Fatalf("db %d minsup %d pfct %v %v: itemsets differ with the Chernoff–Hoeffding rule off", i, minSup, pfct, mode)
					}
					if off.Stats.CHPruned != 0 || on.Stats.CHPruned+on.Stats.FreqPruned != off.Stats.FreqPruned {
						t.Fatalf("db %d minsup %d pfct %v %v: CH on prunes %d+%d, off %d+%d: a target changed more than its pruning rule",
							i, minSup, pfct, mode, on.Stats.CHPruned, on.Stats.FreqPruned, off.Stats.CHPruned, off.Stats.FreqPruned)
					}
					if on.Stats.NodesVisited != off.Stats.NodesVisited {
						t.Fatalf("db %d minsup %d pfct %v %v: %d nodes visited with CH, %d without", i, minSup, pfct, mode, on.Stats.NodesVisited, off.Stats.NodesVisited)
					}
					for _, ri := range on.Itemsets {
						full := poibin.Tail(idx.ProbsOf(idx.TidsetOf(ri.Items)), minSup)
						if d := math.Abs(ri.FreqProb - full); d > 1e-12 {
							t.Fatalf("db %d minsup %d: Pr_F(%v) = %v, full-vector tail %v (diff %g)", i, minSup, ri.Items, ri.FreqProb, full, d)
						}
					}
				}
			}
		}
	}
}
