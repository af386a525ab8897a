package pfim

import (
	"testing"

	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/uncertain"
	"github.com/probdata/pfcim/internal/world"
)

func TestProbabilisticSupport(t *testing.T) {
	db := uncertain.PaperExample()
	abc := itemset.FromInts(0, 1, 2)
	// Pr[sup(abc) ≥ s] for s = 0..4 over probs {.9,.6,.7,.9}.
	// psup at pft=0.9 must satisfy Pr[sup ≥ psup] ≥ 0.9.
	for _, pft := range []float64{0.5, 0.8, 0.9, 0.99} {
		psup := ProbabilisticSupport(db, abc, pft)
		got, err := world.FreqProb(db, abc, psup)
		if err != nil {
			t.Fatal(err)
		}
		if got < pft {
			t.Errorf("pft=%v: Pr[sup ≥ psup=%d] = %v < pft", pft, psup, got)
		}
		above, err := world.FreqProb(db, abc, psup+1)
		if err != nil {
			t.Fatal(err)
		}
		if above >= pft {
			t.Errorf("pft=%v: psup=%d not maximal (Pr[sup ≥ %d] = %v)", pft, psup, psup+1, above)
		}
	}
	// Itemset missing from the database: psup = 0.
	if got := ProbabilisticSupport(db, itemset.FromInts(9), 0.5); got != 0 {
		t.Errorf("psup of absent itemset = %d", got)
	}
}

// TestProbSupportModelInstability reproduces the paper's §II critique on
// the Table IV database: under the probabilistic-support definition of
// related work the result set CHANGES when pft moves from 0.9 to 0.8 even
// though the relevant frequent probabilities (≈ 0.99) already satisfy both
// thresholds — while the paper's definition returns the same two itemsets
// at every threshold.
func TestProbSupportModelInstability(t *testing.T) {
	db := uncertain.PaperExampleExtended()
	const minSup = 2

	at09 := MineProbSupportClosed(db, minSup, 0.9)
	at08 := MineProbSupportClosed(db, minSup, 0.8)
	if sameSets(at09, at08) {
		t.Errorf("expected the probabilistic-support result set to change between pft 0.9 (%v) and 0.8 (%v)", at09, at08)
	}

	// The paper's semantics: {abc} and {abcd} are the only itemsets with
	// non-trivial frequent closed probability, regardless of threshold.
	abc := itemset.FromInts(0, 1, 2)
	abcd := itemset.FromInts(0, 1, 2, 3)
	pABC, err := world.FreqClosedProb(db, abc, minSup)
	if err != nil {
		t.Fatal(err)
	}
	pABCD, err := world.FreqClosedProb(db, abcd, minSup)
	if err != nil {
		t.Fatal(err)
	}
	if pABC < 0.8 || pABCD < 0.8 {
		t.Errorf("Pr_FC(abc)=%v, Pr_FC(abcd)=%v; both should stay above 0.8 on Table IV", pABC, pABCD)
	}
	// And the itemsets the competing model returns that ours does not have
	// low true frequent closed probability (the paper quotes 0.4 for {a}
	// and {ab}).
	for _, r := range append(append([]ProbSupportItemset{}, at09...), at08...) {
		if itemset.Equal(r.Items, abc) || itemset.Equal(r.Items, abcd) {
			continue
		}
		p, err := world.FreqClosedProb(db, r.Items, minSup)
		if err != nil {
			t.Fatal(err)
		}
		if p > 0.6 {
			t.Errorf("competing-model result %v has Pr_FC=%v; expected it to be low", r.Items, p)
		}
	}
}

func sameSets(a, b []ProbSupportItemset) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !itemset.Equal(a[i].Items, b[i].Items) {
			return false
		}
	}
	return true
}

// TestProbSupportClosedBasic sanity-checks the model on the paper example:
// results must have psup ≥ minSup and every superset strictly lower psup.
func TestProbSupportClosedBasic(t *testing.T) {
	db := uncertain.PaperExample()
	res := MineProbSupportClosed(db, 2, 0.8)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	items := db.Items()
	for _, r := range res {
		if r.PSup < 2 {
			t.Errorf("%v psup %d below minSup", r.Items, r.PSup)
		}
		if got := ProbabilisticSupport(db, r.Items, 0.8); got != r.PSup {
			t.Errorf("%v psup mismatch: %d vs %d", r.Items, r.PSup, got)
		}
		for _, e := range items {
			if r.Items.Contains(e) {
				continue
			}
			if sup := ProbabilisticSupport(db, r.Items.Add(e), 0.8); sup >= r.PSup {
				t.Errorf("%v not closed under the model: %v has psup %d ≥ %d", r.Items, r.Items.Add(e), sup, r.PSup)
			}
		}
	}
}
