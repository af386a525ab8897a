// Package shard makes the miner's tail and clause arithmetic composable
// across disjoint transaction shards (DESIGN §14). Tuple independence means
// the Poisson-binomial support distribution of an itemset convolves exactly
// across a partition of the transaction space, and the Lemma 4.4 clause
// absence products factor across the same partition — so per-shard
// coefficient vectors computed on separate machines merge at a coordinator
// with zero approximation. The coordinator folds the clause absence
// products itself, per shard range: it holds both tidsets and every p_T.
//
// The package has three layers:
//
//   - Layout and the pure merge function TailParts: the canonical range
//     partition and the exact fold order. core's in-memory sharded path
//     and the distributed path both go through these, which is what makes
//     the two bit-identical.
//   - Evaluator: the per-shard state a worker holds — the slice database,
//     its vertical index, and a shard-local memo of truncated PMFs.
//   - Ring, Worker, Client: consistent-hash dataset placement, the worker
//     HTTP surface, and the coordinator-side kernel that delegates tail
//     PMFs over RPC.
package shard

import (
	"fmt"

	"github.com/probdata/pfcim/internal/poibin"
	"github.com/probdata/pfcim/internal/uncertain"
)

// Layout is the deterministic range partition of a dataset's transaction
// space: shard i holds tids [i·Total/N, (i+1)·Total/N). It depends only on
// (N, Total), so every party — coordinator, workers, the in-memory sharded
// path — derives identical boundaries without coordination.
type Layout struct {
	N     int // number of shards, ≥ 1
	Total int // number of transactions in the dataset
}

// Bounds returns the half-open tid range [lo, hi) of shard i.
func (l Layout) Bounds(i int) (lo, hi int) {
	return i * l.Total / l.N, (i + 1) * l.Total / l.N
}

// End returns the exclusive upper tid of shard i (Total for i ≥ N, so
// boundary-walking loops terminate without a bounds check).
func (l Layout) End(i int) int {
	if i >= l.N {
		return l.Total
	}
	return (i + 1) * l.Total / l.N
}

// Slice returns shard i's transactions of db (aliasing db's storage is
// avoided by uncertain.NewDB's defensive copy downstream).
func Slice(db *uncertain.DB, l Layout, i int) []uncertain.Transaction {
	lo, hi := l.Bounds(i)
	out := make([]uncertain.Transaction, 0, hi-lo)
	for tid := lo; tid < hi; tid++ {
		out = append(out, db.Transaction(tid))
	}
	return out
}

// TailParts folds per-shard truncated PMFs into Pr[S ≥ k] by left-to-right
// truncated convolution — the canonical merge order. Inputs are read-only
// (memoized worker vectors pass through unharmed); intermediates come from
// and return to the scratch freelist. An empty parts list or a merged
// vector shorter than k+1 means fewer than k tuples exist: the tail is 0.
//
// Only cell k of the last merge is read, so each merge skips the cells
// that cannot reach it: below k minus the most successes the parts still
// to fold can add, Σ (len−1) over them. The last merge computes the
// absorbing cell alone. Computed cells keep their products and order, so
// the tail is bit-identical to the full fold.
func TailParts(s *poibin.Scratch, parts [][]float64, k int) float64 {
	if len(parts) == 0 {
		return 0
	}
	rest := 0 // Σ (len−1) over parts[i+1:], at merge i
	for _, p := range parts[1:] {
		rest += len(p) - 1
	}
	acc := parts[0]
	owned := false
	for _, p := range parts[1:] {
		rest -= len(p) - 1
		next := s.ConvolvePMF(acc, p, k, k-rest)
		if owned {
			s.ReleasePMF(acc)
		}
		acc, owned = next, true
	}
	tail := poibin.TailOfPMF(acc, k)
	if owned {
		s.ReleasePMF(acc)
	}
	return tail
}

// CheckLayout validates a layout against a dataset size.
func CheckLayout(l Layout, n int) error {
	if l.N < 1 {
		return fmt.Errorf("shard: layout needs ≥ 1 shard, got %d", l.N)
	}
	if l.Total != n {
		return fmt.Errorf("shard: layout sized for %d transactions, dataset has %d", l.Total, n)
	}
	return nil
}
