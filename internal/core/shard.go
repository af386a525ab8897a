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
func (m *miner) shardTail(b *bitset.Bitset, g *gather, x itemset.Itemset, e itemset.Item) float64 {
	if kern := m.opts.ShardKernel; kern != nil && (x != nil || e >= 0) {
		if parts, ok := kern.TailPMFs([]shard.Query{{Items: x, Ext: e}}, m.opts.MinSup); ok {
			return shard.TailParts(&m.tail, parts[0], m.opts.MinSup)
		}
	}
	return m.shardTailLocal(b, g)
}

// kernel returns the run's shard kernel, nil when tails fold inline.
func (m *miner) kernel() ShardKernel {
	if !m.sharded() {
		return nil
	}
	return m.opts.ShardKernel
}

// Batched delegation (DESIGN §14.3). A delegated tail costs a round trip
// per shard, so each AndBatch chunk of siblings, and the candidate items in
// runs of batchChunk queries, fetch in one fan-out every tail their consume
// loop may evaluate: count ≥ MinSup, not pruned by the Chernoff–Hoeffding
// bound, not in the memo, and no tidset already queued in the same fan-out.
// planTail records that decision per target, and the consume loop reads it
// (boundedTail), in serial order and checking the memo first (tailFetched),
// so itemsets and Stats are byte-identical to asking for one tail at a
// time. A target whose tidset equals an earlier one of its fan-out is left
// unfetched: the earlier target is consumed first and inserts the tail, so
// the memo serves the later one (once the memo is full, tailOf folds it on
// its own, to the same value and Stats). Fetched tails the loop never consumes —
// past a Lemma 4.3 break, or served by the memo after an earlier subtree
// inserted the same tidset — are the session's fetched tails minus
// Stats.TailEvaluations.

// tailPlan is the fetch-time decision for one target of a delegated run:
// pruned when the Chernoff–Hoeffding bound rules it out; otherwise parts
// holds its fetched per-shard PMFs, nil when the memo already held the
// tail, an earlier target of the fan-out has the same tidset, or the
// kernel declined the fan-out.
type tailPlan struct {
	pruned bool
	parts  [][]float64
}

// tailBatch is the fan-out under construction: its queries, the plan index
// each one fills, and each query's tidset and hash. The miner reuses it
// for every fan-out; the kernel does not retain the queries.
type tailBatch struct {
	qs   []shard.Query
	at   []int
	tids []*bitset.Bitset
	hash []uint64
}

// planTail records in plans[j] the decision for the target q with tidset
// b, whose count is at least MinSup, and queues q in m.batch when its PMFs
// must be fetched: the bound passes, the memo misses and no queued query
// has the same tidset.
func (m *miner) planTail(plans []tailPlan, j int, b *bitset.Bitset, q shard.Query) {
	g := m.probsOf(b)
	plans[j] = tailPlan{pruned: m.chPrunes(&g)}
	if plans[j].pruned {
		return
	}
	_, h, hit := m.memoGet(b)
	if hit {
		return
	}
	tb := &m.batch
	for n, qh := range tb.hash {
		if qh == h && bitset.Equal(tb.tids[n], b) {
			return
		}
	}
	tb.qs = append(tb.qs, q)
	tb.at = append(tb.at, j)
	tb.tids = append(tb.tids, b)
	tb.hash = append(tb.hash, h)
}

// fetchTails sends the queued queries to the kernel as one fan-out, stores
// query n's per-shard PMFs in plans[at[n]] and empties the batch. A
// declined call stores nothing: the consume loop then evaluates those
// tails one at a time.
func (m *miner) fetchTails(kern ShardKernel, plans []tailPlan) {
	tb := &m.batch
	if len(tb.qs) > 0 {
		if parts, ok := kern.TailPMFs(tb.qs, m.opts.MinSup); ok {
			for n, j := range tb.at {
				plans[j].parts = parts[n]
			}
		}
	}
	tb.qs, tb.at, tb.tids, tb.hash = tb.qs[:0], tb.at[:0], tb.tids[:0], tb.hash[:0]
}

// planCandidates plans the items from allItems[from] on and fetches, in one
// fan-out, the tails of the first batchChunk of them that need one. It
// returns the index past the last item it planned.
func (m *miner) planCandidates(kern ShardKernel, plans []tailPlan, from int) int {
	j := from
	for ; j < len(m.allItems) && len(m.batch.qs) < batchChunk; j++ {
		e := m.allItems[j]
		if tids := m.allTids[j]; tids.Count() >= m.opts.MinSup {
			m.planTail(plans, j, tids, shard.Query{Ext: e})
		}
	}
	m.fetchTails(kern, plans)
	return j
}

// tailFetched is tailOf for a target whose per-shard PMFs fetchTails
// brought back: a memo hit is counted and the PMFs are dropped; a miss
// folds them, counts an evaluation and inserts the tail.
func (m *miner) tailFetched(b *bitset.Bitset, parts [][]float64) float64 {
	prF, h, hit := m.memoGet(b)
	if hit {
		m.stats.TailMemoHits++
		return prF
	}
	m.stats.TailEvaluations++
	prF = shard.TailParts(&m.tail, parts, m.opts.MinSup)
	m.memoPut(h, b, prF)
	return prF
}

// shardTailLocal splits b's gathered probability vector at the layout
// boundaries — the gathered vector is ascending in tid, so each shard's
// tuples form one contiguous run, as long as b's count in the shard's tid
// range — and folds the per-range truncated PMFs. g, when non-nil, must
// be probsOf(b); a sharded miner has no certain-tuple mask, so it holds
// every tuple's probability.
func (m *miner) shardTailLocal(b *bitset.Bitset, g *gather) float64 {
	if g == nil {
		gv := m.probsOf(b)
		g = &gv
	}
	probs := g.probs
	l := m.shardLayout()
	if cap(m.shardParts) < l.N {
		m.shardParts = make([][]float64, l.N)
	}
	parts := m.shardParts[:l.N]
	off := 0
	for i := range parts {
		c := b.CountRange(l.Bounds(i))
		parts[i] = m.tail.PMFTrunc(probs[off:off+c], m.opts.MinSup)
		off += c
	}
	t := shard.TailParts(&m.tail, parts, m.opts.MinSup)
	for i := range parts {
		m.tail.ReleasePMF(parts[i])
		parts[i] = nil
	}
	return t
}
