package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/probdata/pfcim/internal/gen"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/uncertain"
	"github.com/probdata/pfcim/internal/world"
)

func TestExactFCPPaperExample(t *testing.T) {
	db := uncertain.PaperExample()
	abc := itemset.FromInts(0, 1, 2)
	got, err := ExactFCP(db, abc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.8754) > 1e-9 {
		t.Errorf("ExactFCP(abc) = %v, want 0.8754", got)
	}
	abcd := itemset.FromInts(0, 1, 2, 3)
	got, err = ExactFCP(db, abcd, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.81) > 1e-9 {
		t.Errorf("ExactFCP(abcd) = %v, want 0.81", got)
	}
	// Non-closed itemsets have Pr_FC = 0 (count ties make them dead).
	for _, x := range []itemset.Itemset{itemset.FromInts(0), itemset.FromInts(0, 1)} {
		got, err = ExactFCP(db, x, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Errorf("ExactFCP(%v) = %v, want 0", x, got)
		}
	}
	// Unsatisfiable support threshold.
	got, err = ExactFCP(db, abc, 5)
	if err != nil || got != 0 {
		t.Errorf("ExactFCP at minSup 5 = %v, %v; want 0", got, err)
	}
}

func TestExactFCPAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		db := randomDB(rng, 8, 5)
		items := db.Items()
		var x itemset.Itemset
		for _, it := range items {
			if rng.Intn(2) == 0 {
				x = append(x, it)
			}
		}
		if len(x) == 0 {
			x = itemset.Itemset{items[0]}
		}
		minSup := rng.Intn(3) + 1
		want, err := world.FreqClosedProb(db, x, minSup)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExactFCP(db, x, minSup)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: ExactFCP(%v, ms=%d) = %v, oracle %v", trial, x, minSup, got, want)
		}
	}
}

func TestEstimateFCPCloseToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 25; trial++ {
		db := randomDB(rng, 8, 5)
		items := db.Items()
		x := itemset.Itemset{items[rng.Intn(len(items))]}
		minSup := rng.Intn(2) + 1
		exact, err := ExactFCP(db, x, minSup)
		if err != nil {
			t.Fatal(err)
		}
		est, err := EstimateFCP(db, x, minSup, 0.05, 0.05, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est-exact) > 0.05 {
			t.Errorf("trial %d: EstimateFCP(%v) = %v, exact %v", trial, x, est, exact)
		}
	}
}

func TestClauseCount(t *testing.T) {
	db := uncertain.PaperExample()
	// {a b c}: one extension event (d).
	m, err := ClauseCount(db, itemset.FromInts(0, 1, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if m != 1 {
		t.Errorf("ClauseCount(abc) = %d, want 1", m)
	}
	// {a b c d}: no other items.
	m, err = ClauseCount(db, itemset.FromInts(0, 1, 2, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	if m != 0 {
		t.Errorf("ClauseCount(abcd) = %d, want 0", m)
	}
	// Dead itemsets report 0.
	m, err = ClauseCount(db, itemset.FromInts(0), 2)
	if err != nil || m != 0 {
		t.Errorf("ClauseCount(a) = %d, %v; want 0 (dead)", m, err)
	}
	active, err := SamplerActiveItemset(db, itemset.FromInts(0, 1, 2), 2)
	if err != nil || !active {
		t.Errorf("abc should be sampler-active: %v, %v", active, err)
	}
}

// TestEstimateFCPRejectsBadTolerance: ε and δ outside (0,1) are errors. A
// zero used to yield an infinite sample size, no samples, and Pr_F in place
// of Pr_FC with a nil error.
func TestEstimateFCPRejectsBadTolerance(t *testing.T) {
	db := uncertain.PaperExample()
	abc := itemset.FromInts(0, 1, 2)
	for _, bad := range []float64{0, -0.1, 1, 1.5, math.NaN()} {
		if got, err := EstimateFCP(db, abc, 2, bad, 0.1, 1); err == nil {
			t.Errorf("EstimateFCP(eps=%v) = %v, want an error", bad, got)
		}
		if got, err := EstimateFCP(db, abc, 2, 0.1, bad, 1); err == nil {
			t.Errorf("EstimateFCP(delta=%v) = %v, want an error", bad, got)
		}
	}
	// Pr_FC(abc) = 0.8754 (Example 1.2); Pr_F(abc) = 0.9726 is what the
	// unvalidated zero-tolerance call returned.
	got, err := EstimateFCP(db, abc, 2, 0.05, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.8754) > 0.05 {
		t.Errorf("EstimateFCP(abc) = %v, want ≈ 0.8754", got)
	}
}

// TestExactFCPMatchesMineBeyondOracle: on a database far beyond the
// possible-world oracle's reach, every itemset Mine resolves by exact
// inclusion–exclusion must get the same Pr_FC from ExactFCP — with the
// Lemma 4.4 bounds on (only the candidates they cannot settle reach the
// exact union) and off (every candidate does).
func TestExactFCPMatchesMineBeyondOracle(t *testing.T) {
	db := gen.AssignGaussian(gen.MushroomLike(0.02, 42), 0.5, 0.5, 43)
	if db.N() <= 26 {
		t.Fatalf("workload has %d transactions; it must exceed the oracle's limit", db.N())
	}
	for _, tc := range []struct {
		rel           float64
		disableBounds bool
	}{{0.1, false}, {0.2, true}} {
		minSup := AbsoluteMinSup(db.N(), tc.rel)
		res, err := Mine(db, Options{MinSup: minSup, PFCT: 0.3, Seed: 3, DisableBounds: tc.disableBounds, MaxExactClauses: 12})
		if err != nil {
			t.Fatal(err)
		}
		exact := 0
		for _, ri := range res.Itemsets {
			if ri.Method != MethodExact {
				continue
			}
			exact++
			got, err := ExactFCP(db, ri.Items, minSup)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-ri.Prob) > 1e-12 {
				t.Errorf("rel %v, bounds off %v: ExactFCP(%v) = %v, Mine reported %v", tc.rel, tc.disableBounds, ri.Items, got, ri.Prob)
			}
		}
		if exact == 0 {
			t.Fatalf("rel %v: no exactly resolved itemsets; the comparison is vacuous", tc.rel)
		}
	}
}
