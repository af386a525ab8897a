package core

import (
	"container/heap"
	"context"
	"sort"

	"github.com/probdata/pfcim/internal/itemset"
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
//
// Top-k is the serial depth-first enumeration of Mine with a rising
// threshold, which is state shared by the whole run: Parallelism and
// Search are ignored, while Trace and Tracer apply as they do to Mine.
func MineTopKContext(ctx context.Context, db *uncertain.DB, minSup, k int, opts Options) ([]ResultItem, error) {
	opts.MinSup = minSup
	// Seed threshold: accept anything with non-trivial probability until k
	// results exist.
	opts.PFCT = 1e-9
	opts.Parallelism = 0
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, nil
	}
	start := opts.Tracer.Now()
	m := newMiner(ctx, db, opts)
	m.topK = k
	m.buildCandidates()
	if err := m.mineDFS(); err != nil {
		return nil, err
	}
	opts.Tracer.AddMineWall(opts.Tracer.Now() - start)

	// The order is total (results are distinct itemsets), so the heap's
	// layout cannot show through. An empty result is non-nil.
	out := append([]ResultItem{}, m.results...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return itemset.Compare(out[i].Items, out[j].Items) < 0
	})
	return out, nil
}

// accept records an itemset the node body accepted. Mine keeps them all;
// top-k keeps the k best in a min-heap and, once it holds k, raises pfct to
// the k-th best, so every later prune and check tests against it.
func (m *miner) accept(ri ResultItem) {
	if m.topK == 0 {
		m.results = append(m.results, ri)
		return
	}
	h := (*resultHeap)(&m.results)
	heap.Push(h, ri)
	if h.Len() > m.topK {
		heap.Pop(h)
	}
	if h.Len() == m.topK {
		m.opts.PFCT = (*h)[0].Prob
	}
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
