package core

import (
	"container/heap"
	"context"
	"sort"

	"github.com/probdata/pfcim/internal/bitset"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/poibin"
	"github.com/probdata/pfcim/internal/uncertain"
)

// MineTopK returns the k itemsets with the highest frequent closed
// probability at the given minimum support, without a user-supplied pfct:
// the threshold rises dynamically to the current k-th best probability, so
// all of MPFCI's prunings keep their bite once the heap fills. Results are
// sorted by descending probability (ties lexicographically).
//
// Ranking uses each itemset's estimated Pr_FC; candidates resolved by the
// Lemma 4.4 bounds carry the bound midpoint, so orderings between itemsets
// whose probability intervals overlap are best-effort (exact for the
// common case of well-separated probabilities).
func MineTopK(db *uncertain.DB, minSup, k int, opts Options) ([]ResultItem, error) {
	return MineTopKContext(context.Background(), db, minSup, k, opts)
}

// MineTopKContext is MineTopK with cancellation: once ctx is done the run
// aborts with ctx.Err() at the next enumeration-tree node.
func MineTopKContext(ctx context.Context, db *uncertain.DB, minSup, k int, opts Options) ([]ResultItem, error) {
	opts.MinSup = minSup
	// Seed threshold: accept anything with non-trivial probability until k
	// results exist.
	const floor = 1e-9
	opts.PFCT = floor
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, nil
	}
	m := newMiner(ctx, db, opts)
	m.buildCandidates()

	h := &resultHeap{}
	heap.Init(h)
	threshold := func() float64 {
		if h.Len() < k {
			return floor
		}
		return (*h)[0].Prob
	}

	var rec func(x itemset.Itemset, tids *bitset.Bitset, count int, prF float64, startPos int) error
	rec = func(x itemset.Itemset, tids *bitset.Bitset, count int, prF float64, startPos int) error {
		if m.ctx != nil {
			if err := m.ctx.Err(); err != nil {
				return err
			}
		}
		m.stats.NodesVisited++
		// Superset pruning is threshold-independent. The child tidset is a
		// subset of tids, so count equality is exactly tids ⊆ tids(e).
		if !m.opts.DisableSuperset {
			last := x.Last()
			for _, c := range m.cands {
				if c.item >= last {
					break
				}
				if x.Contains(c.item) {
					continue
				}
				if bitset.IsSubset(tids, c.tids) {
					m.stats.SupersetPruned++
					return nil
				}
			}
		}
		depth := len(x)
		exts := m.extBuf(depth)
		selfDead := false
		var err error
		for pos := startPos; pos < len(m.cands); pos++ {
			c := m.cands[pos]
			buf := m.getBuf()
			cc := bitset.AndInto(buf, tids, c.tids)
			if cc < m.opts.MinSup {
				m.putBuf(buf)
				exts = append(exts, extension{item: c.item, cnt: cc})
				continue
			}
			recX := extension{item: c.item, tids: buf, cnt: cc}
			childProbs, mean := m.probsOf(buf)
			// Anything that cannot beat the current k-th best is out:
			// Pr_FC ≤ Pr_F, and the threshold only rises.
			if poibin.TailUpperBoundMean(mean, len(childProbs), m.opts.MinSup) <= threshold() {
				m.stats.CHPruned++
				exts = append(exts, recX)
				continue
			}
			childPrF := m.tailOf(buf, childProbs, x, c.item)
			recX.prF, recX.hasPrF = childPrF, true
			exts = append(exts, recX)
			if childPrF <= threshold() {
				m.stats.FreqPruned++
				continue
			}
			if !m.opts.DisableSubset && cc == count {
				selfDead = true
				m.stats.SubsetPruned++
				err = rec(x.Extend(c.item), buf, cc, childPrF, pos+1)
				break
			}
			if err = rec(x.Extend(c.item), buf, cc, childPrF, pos+1); err != nil {
				break
			}
		}
		if err != nil || selfDead {
			m.releaseExts(depth, exts)
			return err
		}
		// Evaluate against the current threshold.
		ri, accepted, err := m.evaluate(x, tids, count, prF, exts, threshold())
		m.releaseExts(depth, exts)
		if err != nil {
			return err
		}
		if accepted {
			heap.Push(h, ri)
			if h.Len() > k {
				heap.Pop(h)
			}
		}
		return nil
	}
	for pos := 0; pos < len(m.cands); pos++ {
		c := m.cands[pos]
		if c.prF <= threshold() {
			continue
		}
		if err := rec(itemset.Itemset{c.item}, c.tids.Clone(), c.cnt, c.prF, pos+1); err != nil {
			return nil, err
		}
	}

	out := make([]ResultItem, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(ResultItem)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return itemset.Compare(out[i].Items, out[j].Items) < 0
	})
	return out, nil
}

// resultHeap is a min-heap on Prob, so the root is the k-th best.
type resultHeap []ResultItem

func (h resultHeap) Len() int            { return len(h) }
func (h resultHeap) Less(i, j int) bool  { return h[i].Prob < h[j].Prob }
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(ResultItem)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
