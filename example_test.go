package pfcim_test

import (
	"fmt"
	"log"

	pfcim "github.com/probdata/pfcim"
)

// ExampleGenerateRules derives association rules from the mined closed
// itemsets of the paper's running example.
func ExampleGenerateRules() {
	db := pfcim.PaperExample()
	res, err := pfcim.Mine(db, pfcim.Options{MinSup: 2, PFCT: 0.8, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	sources := make([]pfcim.Itemset, len(res.Itemsets))
	for i, r := range res.Itemsets {
		sources[i] = r.Items
	}
	rules, err := pfcim.GenerateRules(db, sources, pfcim.RuleOptions{MinConfidence: 0.99})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(rules), "rules with expected confidence ≥ 0.99; first:", rules[0])
	// Output:
	// 13 rules with expected confidence ≥ 0.99; first: {a} => {b c} (conf 1.000)
}

// ExampleNewWindow maintains probabilistic frequent items over a
// sliding window.
func ExampleNewWindow() {
	w, err := pfcim.NewWindow(3)
	if err != nil {
		log.Fatal(err)
	}
	for _, tr := range []pfcim.Transaction{
		{Items: pfcim.NewItemset(1, 2), Prob: 0.9},
		{Items: pfcim.NewItemset(1), Prob: 0.9},
		{Items: pfcim.NewItemset(1, 2), Prob: 0.9},
	} {
		if _, _, err := w.Push(tr); err != nil {
			log.Fatal(err)
		}
	}
	items, err := w.FrequentItems(pfcim.StreamOptions{MinSup: 2, PFT: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	for _, item := range items {
		fmt.Printf("item %d: Pr_F=%.3f\n", item.Item, item.FreqProb)
	}
	// Output:
	// item 1: Pr_F=0.972
	// item 2: Pr_F=0.810
}

// ExampleExactFreqClosedProb computes an exact frequent closed probability
// without enumerating possible worlds.
func ExampleExactFreqClosedProb() {
	db := pfcim.PaperExample()
	p, err := pfcim.ExactFreqClosedProb(db, pfcim.NewItemset(0, 1, 2), 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Pr_FC({a b c}) = %.4f\n", p)
	// Output:
	// Pr_FC({a b c}) = 0.8754
}

// ExampleMaximalFrequent shows the border representation the top-down
// strategy mines.
func ExampleMaximalFrequent() {
	db := pfcim.PaperExample()
	maxes, err := pfcim.MaximalFrequent(db, pfcim.FrequentOptions{MinSup: 2, PFT: 0.8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(maxes)
	// Output:
	// [{a b c d}]
}

// ExampleProbabilisticSupport evaluates the competing probabilistic-support
// definition of related work.
func ExampleProbabilisticSupport() {
	db := pfcim.PaperExample()
	// Pr[sup(abc) ≥ 2] = 0.9726 ≥ 0.8 but Pr[sup ≥ 3] = 0.7884 < 0.8.
	fmt.Println(pfcim.ProbabilisticSupport(db, pfcim.NewItemset(0, 1, 2), 0.8))
	// Output:
	// 2
}

// ExampleMineTopK asks for the single most probably frequent-closed
// itemset without choosing a threshold.
func ExampleMineTopK() {
	db := pfcim.PaperExample()
	top, err := pfcim.MineTopK(db, 2, 1, pfcim.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v Pr_FC=%.4f\n", top[0].Items, top[0].Prob)
	// Output:
	// {a b c} Pr_FC=0.8754
}
