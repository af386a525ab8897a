// Package pfim mines probabilistic frequent itemsets (Definition 3.5):
// itemsets X with Pr{sup(X) ≥ min_sup} > pft. Its result set is identical
// to the TODIS algorithm of related work [22] (any exact miner of
// Definition 3.5 returns the same set), and it plays two roles in the
// reproduction: the PFI counts of the compression experiment (Fig. 10) and
// the enumeration front end of the Naive baseline (Fig. 5). The package
// also provides the expected-support U-Apriori model as a comparison point.
package pfim

import (
	"fmt"
	"sort"

	"github.com/probdata/pfcim/internal/bitset"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/poibin"
	"github.com/probdata/pfcim/internal/uncertain"
)

// Options configures the probabilistic frequent itemset miner.
type Options struct {
	// MinSup is the absolute minimum support.
	MinSup int
	// PFT is the probabilistic frequent threshold (the paper's pft).
	PFT float64
	// DisableCH disables the Chernoff-Hoeffding filter in front of the
	// exact dynamic-programming check.
	DisableCH bool
}

// Canonical validates o, applies the defaults Mine would (MinSup 0 defaults
// to 1), and clears DisableCH — an execution knob that cannot change the
// mined result, because the Chernoff-Hoeffding filter only rejects itemsets
// the exact check rejects too. Mirrors core.Options.Canonical: two option
// structs with equal canonical forms produce identical result sets.
func (o Options) Canonical() (Options, error) {
	if o.MinSup < 0 {
		return o, fmt.Errorf("pfim: MinSup must be ≥ 1, got %d", o.MinSup)
	}
	if o.MinSup == 0 {
		o.MinSup = 1
	}
	if o.PFT < 0 || o.PFT >= 1 {
		return o, fmt.Errorf("pfim: PFT must be in [0, 1), got %v", o.PFT)
	}
	o.DisableCH = false
	return o, nil
}

// Itemset is one probabilistic frequent itemset with its exact frequent
// probability and expected support.
type Itemset struct {
	Items           itemset.Itemset
	FreqProb        float64
	Count           int
	ExpectedSupport float64
}

// Mine returns every probabilistic frequent itemset of db, sorted
// lexicographically. The frequent probability is anti-monotone, so a
// depth-first enumeration with subtree pruning at Pr_F ≤ pft is complete.
func Mine(db *uncertain.DB, opts Options) []Itemset {
	if opts.MinSup < 1 {
		opts.MinSup = 1
	}
	idx := db.Index()
	probs := db.Probs()

	type cand struct {
		item itemset.Item
		tids *bitset.Bitset
	}
	var cands []cand
	var out []Itemset

	probsOf := func(b *bitset.Bitset) []float64 {
		ps := make([]float64, 0, b.Count())
		b.ForEach(func(tid int) bool {
			ps = append(ps, probs[tid])
			return true
		})
		return ps
	}
	check := func(b *bitset.Bitset) (float64, bool) {
		if b.Count() < opts.MinSup {
			return 0, false
		}
		ps := probsOf(b)
		if !opts.DisableCH && poibin.TailUpperBound(ps, opts.MinSup) <= opts.PFT {
			return 0, false
		}
		prF := poibin.Tail(ps, opts.MinSup)
		return prF, prF > opts.PFT
	}

	for _, it := range idx.Items {
		if _, ok := check(idx.Tidsets[it]); ok {
			cands = append(cands, cand{item: it, tids: idx.Tidsets[it]})
		}
	}

	var rec func(x itemset.Itemset, tids *bitset.Bitset, prF float64, startPos int)
	rec = func(x itemset.Itemset, tids *bitset.Bitset, prF float64, startPos int) {
		exp := 0.0
		tids.ForEach(func(tid int) bool {
			exp += probs[tid]
			return true
		})
		out = append(out, Itemset{Items: x.Clone(), FreqProb: prF, Count: tids.Count(), ExpectedSupport: exp})
		for pos := startPos; pos < len(cands); pos++ {
			child := bitset.And(tids, cands[pos].tids)
			if childPrF, ok := check(child); ok {
				rec(x.Extend(cands[pos].item), child, childPrF, pos+1)
			}
		}
	}
	for pos, c := range cands {
		ps := probsOf(c.tids)
		rec(itemset.Itemset{c.item}, c.tids.Clone(), poibin.Tail(ps, opts.MinSup), pos+1)
	}
	sort.Slice(out, func(i, j int) bool { return itemset.Compare(out[i].Items, out[j].Items) < 0 })
	return out
}

// MaximalFrequent returns only the maximal probabilistic frequent itemsets:
// the compact border of Mine's result set, from which every PFI follows as
// a non-empty subset (the top-down view of TODIS [22]).
func MaximalFrequent(db *uncertain.DB, opts Options) []itemset.Itemset {
	full := Mine(db, opts)
	keys := map[string]bool{}
	for _, p := range full {
		keys[p.Items.Key()] = true
	}
	items := db.Items()
	var out []itemset.Itemset
	for _, p := range full {
		isMax := true
		for _, e := range items {
			if p.Items.Contains(e) {
				continue
			}
			if keys[p.Items.Add(e).Key()] {
				isMax = false
				break
			}
		}
		if isMax {
			out = append(out, p.Items)
		}
	}
	return out
}

// Count returns the number of probabilistic frequent itemsets without
// materializing them or their exact frequent probabilities. Itemsets whose
// membership is settled by the analytic tail bounds — the Chernoff-
// Hoeffding upper bound for rejection (Lemma 4.1) and its Hoeffding lower-
// bound counterpart for acceptance, in the spirit of the approximation-
// accelerated exact mining of related work [23] — never run the exact
// dynamic program; only the gap cases do. The count is exact.
func Count(db *uncertain.DB, opts Options) int {
	if opts.MinSup < 1 {
		opts.MinSup = 1
	}
	idx := db.Index()
	probs := db.Probs()

	probsOf := func(b *bitset.Bitset) []float64 {
		ps := make([]float64, 0, b.Count())
		b.ForEach(func(tid int) bool {
			ps = append(ps, probs[tid])
			return true
		})
		return ps
	}
	isPF := func(b *bitset.Bitset) bool {
		if b.Count() < opts.MinSup {
			return false
		}
		ps := probsOf(b)
		if poibin.TailUpperBound(ps, opts.MinSup) <= opts.PFT {
			return false
		}
		if poibin.TailLowerBound(ps, opts.MinSup) > opts.PFT {
			return true
		}
		return poibin.Tail(ps, opts.MinSup) > opts.PFT
	}

	type cand struct {
		item itemset.Item
		tids *bitset.Bitset
	}
	var cands []cand
	for _, it := range idx.Items {
		if isPF(idx.Tidsets[it]) {
			cands = append(cands, cand{item: it, tids: idx.Tidsets[it]})
		}
	}
	count := 0
	var rec func(tids *bitset.Bitset, startPos int)
	rec = func(tids *bitset.Bitset, startPos int) {
		count++
		for pos := startPos; pos < len(cands); pos++ {
			child := bitset.And(tids, cands[pos].tids)
			if isPF(child) {
				rec(child, pos+1)
			}
		}
	}
	for pos, c := range cands {
		rec(c.tids.Clone(), pos+1)
	}
	return count
}

// ExpectedSupportMine returns all itemsets whose *expected* support is
// ≥ minExpSup — the expected-support model of Chui et al.'s U-Apriori [9].
// Expected support is anti-monotone, so the same DFS applies.
func ExpectedSupportMine(db *uncertain.DB, minExpSup float64) []Itemset {
	idx := db.Index()
	probs := db.Probs()

	expOf := func(b *bitset.Bitset) float64 {
		e := 0.0
		b.ForEach(func(tid int) bool {
			e += probs[tid]
			return true
		})
		return e
	}

	type cand struct {
		item itemset.Item
		tids *bitset.Bitset
	}
	var cands []cand
	for _, it := range idx.Items {
		if expOf(idx.Tidsets[it]) >= minExpSup {
			cands = append(cands, cand{item: it, tids: idx.Tidsets[it]})
		}
	}
	var out []Itemset
	var rec func(x itemset.Itemset, tids *bitset.Bitset, exp float64, startPos int)
	rec = func(x itemset.Itemset, tids *bitset.Bitset, exp float64, startPos int) {
		out = append(out, Itemset{Items: x.Clone(), Count: tids.Count(), ExpectedSupport: exp})
		for pos := startPos; pos < len(cands); pos++ {
			child := bitset.And(tids, cands[pos].tids)
			if e := expOf(child); e >= minExpSup {
				rec(x.Extend(cands[pos].item), child, e, pos+1)
			}
		}
	}
	for pos, c := range cands {
		rec(itemset.Itemset{c.item}, c.tids.Clone(), expOf(c.tids), pos+1)
	}
	sort.Slice(out, func(i, j int) bool { return itemset.Compare(out[i].Items, out[j].Items) < 0 })
	return out
}
