package core

// Sharded tail and clause evaluation (DESIGN §14). When Options.Shards ≥ 2
// the transaction space is split into contiguous ranges by shard.Layout and
// every Poisson-binomial tail becomes a fold of per-range truncated PMFs
// (poibin.PMFTrunc merged by poibin.ConvolvePMF in shard order), while every
// Lemma 4.4 clause absence product becomes a fold of per-range partial
// products. The miner runs this arithmetic inline; when Options.ShardKernel
// is installed, the per-shard tail PMFs of calls that carry an itemset
// identity are delegated to it instead. Both sides run PMFTrunc over the
// same per-range probability subsequences, so inline and RPC-delegated
// mining are byte-identical for a fixed shard count. Clause absence
// products always fold here: the coordinator holds both tidsets and every
// p_T, and a product costs far less than the round trip that would ship
// it. DNF clause tails, intersections with no itemset identity, fold here
// too.

import (
	"github.com/probdata/pfcim/internal/bitset"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/shard"
)

// sharded reports whether this run partitions its tail/clause arithmetic.
func (m *miner) sharded() bool { return m.opts.Shards >= 2 }

// shardLayout derives the run's range partition. The layout is a pure
// function of (Shards, |UTD|), so the inline fold and the distributed
// placement partition identically.
func (m *miner) shardLayout() shard.Layout {
	return shard.Layout{N: m.opts.Shards, Total: m.db.N()}
}

// shardTail computes Pr[sup ≥ MinSup] of the itemset with tidset b by the
// canonical sharded fold. Calls that carry an itemset identity (target is
// x+e when e ≥ 0, x alone when e < 0) may be delegated to the shard kernel;
// identity-free calls (DNF clause tails over intersected tidsets) and
// declined delegations compute locally from b — bit-identically, since both
// sides run PMFTrunc over the same per-range probability subsequences.
func (m *miner) shardTail(b *bitset.Bitset, probs []float64, x itemset.Itemset, e itemset.Item) float64 {
	if kern := m.opts.ShardKernel; kern != nil && (x != nil || e >= 0) {
		if parts, ok := kern.TailPMFs(x, e, m.opts.MinSup); ok {
			return shard.TailParts(&m.tail, parts, m.opts.MinSup)
		}
	}
	return m.shardTailLocal(b, probs)
}

// shardTailLocal splits b's gathered probability vector at the layout
// boundaries — the gathered vector is ascending in tid, so each shard's
// tuples form one contiguous run — and folds the per-range truncated PMFs.
// probs, when non-nil, must be probsOf(b).
func (m *miner) shardTailLocal(b *bitset.Bitset, probs []float64) float64 {
	if probs == nil {
		probs = m.probsOf(b)
	}
	l := m.shardLayout()
	n := l.N
	if cap(m.shardCounts) < n {
		m.shardCounts = make([]int, n)
		m.shardParts = make([][]float64, n)
	}
	counts := m.shardCounts[:n]
	for i := range counts {
		counts[i] = 0
	}
	s, hi := 0, l.End(0)
	b.ForEach(func(tid int) bool {
		for tid >= hi {
			s++
			hi = l.End(s)
		}
		counts[s]++
		return true
	})
	parts := m.shardParts[:n]
	off := 0
	for i := 0; i < n; i++ {
		parts[i] = m.tail.PMFTrunc(probs[off:off+counts[i]], m.opts.MinSup)
		off += counts[i]
	}
	t := shard.TailParts(&m.tail, parts, m.opts.MinSup)
	for i := range parts {
		m.tail.ReleasePMF(parts[i])
		parts[i] = nil
	}
	return t
}

// shardAbsentFactor computes the clause absence product Π (1−p_T) over
// tids\b as per-shard partial products folded in shard order: within a
// shard the partial accumulates in ascending tid order and the scan stops
// once the partial drops below shard.NegligibleEps; at each boundary the
// completed partial folds into the running product, which going negligible
// ends the fold. Trailing shards with no differing tids contribute an exact
// 1.0 and are skipped.
func (m *miner) shardAbsentFactor(tids, b *bitset.Bitset) (absent float64, negligible bool) {
	l := m.shardLayout()
	absent = 1.0
	f := 1.0
	s, hi := 0, l.End(0)
	bitset.ForEachDiff(tids, b, func(tid int) bool {
		for tid >= hi {
			absent *= f
			f = 1
			if absent < shard.NegligibleEps {
				negligible = true
				return false
			}
			s++
			hi = l.End(s)
		}
		f *= 1 - m.probs[tid]
		return f >= shard.NegligibleEps
	})
	if negligible {
		return absent, true
	}
	absent *= f
	if absent < shard.NegligibleEps {
		return absent, true
	}
	return absent, false
}
