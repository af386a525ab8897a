package core

import (
	"context"
	"fmt"
	"sort"

	"github.com/probdata/pfcim/internal/bitset"
	"github.com/probdata/pfcim/internal/dnf"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/obs"
	"github.com/probdata/pfcim/internal/poibin"
	"github.com/probdata/pfcim/internal/shard"
	"github.com/probdata/pfcim/internal/uncertain"
)

// miner carries the run state shared by the DFS and BFS frameworks.
type miner struct {
	opts     Options
	db       *uncertain.DB
	probs    []float64 // tuple existence probabilities by tid
	allItems itemset.Itemset
	itemTids map[itemset.Item]*bitset.Bitset
	cands    []candidate // probabilistic frequent single-item candidates
	stats    Stats
	results  []ResultItem
	ctx      context.Context
	worker   *worker // non-nil when mining inside the work-stealing pool

	// certain holds the words of the index's certain-tuple (p = 1) mask,
	// which probsOf counts instead of gathering; nil when the database has
	// no certain tuple, and on sharded runs, whose folds gather every
	// tuple (shard.go).
	certain []uint64

	// reuse, when non-nil, is the subtree-reuse cache of an incremental run
	// (MineIncremental): probFC dispatches through the splice/record wrapper
	// in incremental.go and the run is forced onto the serial DFS path.
	reuse *ReuseCache

	// topK > 0 makes the run a top-k search (MineTopK): accept keeps the
	// topK best results and raises opts.PFCT to the k-th best (topk.go).
	topK int

	// rec receives phase-level wall-time spans when Options.Tracer is set;
	// nil otherwise (every method is a nil-safe no-op, so the untraced hot
	// path pays one nil check per call site). Parallel sub-miners each hold
	// their own worker's recorder, so recording is lock-free.
	rec *obs.Recorder

	// Reusable scratch, one owner per miner (parallel sub-miners get their
	// own): pool is the slab arena all intermediate tidsets come from,
	// extBufs[d] backs the extension records and sibling-batch buffers of
	// the node at recursion depth d, pathBufs[d] backs the child itemset of
	// the inline recursion at depth d, and probsBuf backs probsOf. All are
	// safe because tidsets are never mutated once built and every probsOf
	// result is consumed before the next call.
	probsBuf []float64
	batch    tailBatch // the delegated fan-out under construction (shard.go)
	pool     *bitset.Pool
	extBufs  []nodeScratch
	pathBufs []itemset.Itemset

	// tail is the reusable Poisson-binomial kernel scratch (DP vector and
	// convolution-tree buffers); tailFn is the lazily bound tailForDNF
	// method value injected into clause systems.
	tail   poibin.Scratch
	tailFn func(b *bitset.Bitset) float64

	// Sharded-run scratch (Options.Shards ≥ 2, see shard.go): the per-shard
	// truncated PMF views of the fold.
	shardParts [][]float64

	// Checking-cascade scratch (see evaluate.go): the profile of the node
	// under evaluation, its clause records, the sorter view over them, the
	// uncovered-item worklist with its batch buffers, and the reusable
	// clause systems. The cascade is never reentered on one miner, so a
	// single set suffices; owned profiles clone what they retain.
	evalBuf    evalProfile
	clausesBuf []clause
	clauseSort clauseSorter
	uncovBuf   []itemset.Item
	ubDsts     []*bitset.Bitset
	ubSrcs     []*bitset.Bitset
	ubCounts   []int
	sysBs      []*bitset.Bitset
	sysProbs   []float64
	sysBuf     dnf.System
	subBuf     dnf.System
	// sampler is the Karp–Luby working state every clause system of this
	// miner samples with, owned ones included.
	sampler dnf.Sampler

	// tailMemo caches exact Poisson-binomial tails by tidset content: dense
	// data makes distinct enumeration nodes produce identical intersections
	// (e.g. a clause tidset at one node equal to a child tidset probed
	// elsewhere), and Tail is a pure function of the tidset once probs and
	// MinSup are fixed, so a hit returns a bit-identical value. Keys are
	// cloned tidsets, verified with Equal on hash match; the memo stops
	// growing at maxTailMemoEntries.
	tailMemo     map[uint64][]tailEntry
	tailMemoSize int
}

// tailEntry is one memoized Poisson-binomial tail.
type tailEntry struct {
	tids *bitset.Bitset
	prF  float64
}

// maxTailMemoEntries bounds the tail memo's footprint per miner (each
// entry holds a cloned tidset plus a float, ≈ N/8 + 24 bytes at N
// transactions; parallel runs keep one memo per worker). Beyond the cap,
// tails are still served from the memo but no longer added. Served values
// are bit-identical to recomputation, so the cap never changes results.
const maxTailMemoEntries = 1 << 16

// tailOf returns Pr_F of the itemset with tidset b — the Poisson-binomial
// tail Pr[support ≥ MinSup] over b's tuple probabilities — consulting the
// memo first. g, when non-nil, must be probsOf(b) (callers that already
// gathered it for the Chernoff-Hoeffding check pass it to avoid a second
// scan on a miss). x and e carry the itemset identity for sharded
// runs — the target is x+e when e ≥ 0 (x may be nil: the single-item set
// {e}), x alone when e < 0 — so an installed shard kernel can address the
// same tidset on remote slices; unsharded runs ignore them. Memo misses on
// sharded runs compute by the same sharded fold, so memo state never
// changes results.
func (m *miner) tailOf(b *bitset.Bitset, g *gather, x itemset.Itemset, e itemset.Item) float64 {
	prF, h, hit := m.memoGet(b)
	if hit {
		m.stats.TailMemoHits++
		return prF
	}
	m.stats.TailEvaluations++
	prF = m.tailCompute(b, g, x, e)
	m.memoPut(h, b, prF)
	return prF
}

// memoGet looks b up in the tail memo without touching the Stats
// counters; h is b's hash, for memoPut.
func (m *miner) memoGet(b *bitset.Bitset) (prF float64, h uint64, hit bool) {
	h = b.Hash()
	for _, en := range m.tailMemo[h] {
		if bitset.Equal(en.tids, b) {
			return en.prF, h, true
		}
	}
	return 0, h, false
}

// memoPut inserts b's tail under its hash h while the memo has room.
func (m *miner) memoPut(h uint64, b *bitset.Bitset, prF float64) {
	if m.tailMemoSize >= maxTailMemoEntries {
		return
	}
	if m.tailMemo == nil {
		m.tailMemo = make(map[uint64][]tailEntry)
	}
	cl := m.getBuf()
	cl.CopyFrom(b)
	m.tailMemo[h] = append(m.tailMemo[h], tailEntry{tids: cl, prF: prF})
	m.tailMemoSize++
}

// tailCompute is the memo-miss tail computation: the sharded fold when
// Shards ≥ 2, the uncertain tuples' tail (exactTail) otherwise.
func (m *miner) tailCompute(b *bitset.Bitset, g *gather, x itemset.Itemset, e itemset.Item) float64 {
	if m.sharded() {
		return m.shardTail(b, g, x, e)
	}
	if g == nil {
		return m.exactTail(m.probsOf(b))
	}
	return m.exactTail(*g)
}

// exactTail is Pr[S ≥ MinSup] of a gathered tidset. Each certain tuple
// contributes the generating-function factor z, a shift by one, so the
// tail is the uncertain tuples' tail at MinSup − certain; Scratch.Tail
// returns 1 at a threshold ≤ 0.
func (m *miner) exactTail(g gather) float64 {
	return m.tail.Tail(g.probs, m.opts.MinSup-g.certain)
}

// tailForDNF is the tail evaluator injected into clause systems
// (dnf.System.TailFn): it serves a clause tail from the memo when the
// identical tidset was already evaluated by the enumeration — the common
// case on dense data, where a clause tidset is exactly the extension
// tidset of some X+e — and otherwise gathers b with the miner's own
// certain-tuple mask and computes it on the miner's reusable kernel
// scratch, so a memo hit gathers nothing. It reads the memo but never
// inserts and never touches the Stats counters, so the
// TailEvaluations/TailMemoHits split, the memo contents, and every
// downstream hit/miss pattern do not depend on the clause systems.
func (m *miner) tailForDNF(b *bitset.Bitset) float64 {
	if prF, _, hit := m.memoGet(b); hit {
		return prF
	}
	if m.sharded() {
		// Clause tails are intersections with no itemset identity, so they
		// are never delegated — but a sharded run must still fold them by
		// shard so every tail in the run comes from the same arithmetic.
		return m.shardTailLocal(b, nil)
	}
	return m.exactTail(m.probsOf(b))
}

// dnfTailFn returns the miner's bound tailForDNF, creating the method
// value once so clause-system construction stays allocation-free.
func (m *miner) dnfTailFn() func(b *bitset.Bitset) float64 {
	if m.tailFn == nil {
		m.tailFn = m.tailForDNF
	}
	return m.tailFn
}

// getBuf returns a tidset-sized scratch bitset (undefined contents) from
// the miner's slab arena.
func (m *miner) getBuf() *bitset.Bitset {
	if m.pool == nil {
		m.pool = bitset.NewPool(m.db.N())
	}
	return m.pool.Get()
}

// putBuf returns scratch bitsets to the arena.
func (m *miner) putBuf(bufs ...*bitset.Bitset) {
	for _, b := range bufs {
		m.pool.Put(b)
	}
}

// nodeScratch is the per-recursion-depth scratch of one enumeration node:
// its extension records plus the sibling-batch buffers of the batched
// intersection kernel (destinations, source tidsets, counts).
type nodeScratch struct {
	exts   []extension
	dsts   []*bitset.Bitset
	srcs   []*bitset.Bitset
	counts []int
	plans  []tailPlan // per-sibling fetch-time decisions (delegated runs)
}

// extBuf returns the (empty) extension-record slice for recursion depth d;
// the backing array is reused across the siblings at that depth.
func (m *miner) extBuf(d int) []extension {
	for len(m.extBufs) <= d {
		m.extBufs = append(m.extBufs, nodeScratch{})
	}
	return m.extBufs[d].exts[:0]
}

// batchBufs returns depth-d batch buffers with room for nc siblings.
// extBuf(d) must have been called first (it sizes m.extBufs).
func (m *miner) batchBufs(d, nc int) (dsts, srcs []*bitset.Bitset, counts []int) {
	ns := &m.extBufs[d]
	if cap(ns.dsts) < nc {
		ns.dsts = make([]*bitset.Bitset, nc)
		ns.srcs = make([]*bitset.Bitset, nc)
		ns.counts = make([]int, nc)
	}
	return ns.dsts[:nc], ns.srcs[:nc], ns.counts[:nc]
}

// planBuf returns the depth-d per-sibling tail plans, room for nc
// siblings. batchBufs(d, nc) must have been called first.
func (m *miner) planBuf(d, nc int) []tailPlan {
	ns := &m.extBufs[d]
	if cap(ns.plans) < nc {
		ns.plans = make([]tailPlan, nc)
	}
	return ns.plans[:nc]
}

// releaseExts returns every retained extension tidset to the arena and
// parks the record slice for reuse at depth d.
func (m *miner) releaseExts(d int, exts []extension) {
	for i := range exts {
		if exts[i].tids != nil {
			m.putBuf(exts[i].tids)
			exts[i].tids = nil
		}
	}
	m.extBufs[d].exts = exts[:0]
}

// batchChunk is how many sibling extensions are intersected per AndBatch
// column sweep. Chunking keeps the sweep's parent-word reuse while
// bounding the work wasted when subset pruning (Lemma 4.3) abandons the
// remaining siblings mid-loop.
const batchChunk = 16

// candidate is a single item that survived the candidate phase, with its
// tidset, count and exact frequent probability.
type candidate struct {
	item itemset.Item
	tids *bitset.Bitset
	cnt  int
	prF  float64
}

// extension records one probed child of an enumeration node: the
// intersected tidset, its count, and — when the extension survived
// Chernoff-Hoeffding pruning — the exact frequent probability already
// computed in the extension loop. evaluate consumes these records, so the
// checking phase never recomputes a Poisson-binomial tail or re-intersects
// a tidset the enumeration has already paid for. exts[i] always
// corresponds to candidate position startPos+i.
type extension struct {
	item   itemset.Item
	tids   *bitset.Bitset // nil when cnt < MinSup (tidset not retained)
	cnt    int
	prF    float64 // exact Pr_F(X+e), valid only when hasPrF
	hasPrF bool
}

// Mine runs MPFCI (or the configured variant) over db and returns every
// probabilistic frequent closed itemset, sorted lexicographically.
func Mine(db *uncertain.DB, opts Options) (*Result, error) {
	return MineContext(context.Background(), db, opts)
}

// MineContext is Mine with cancellation: the run aborts with ctx.Err() at
// the next enumeration-tree node once ctx is done. Long mining runs at low
// support thresholds can take minutes; this is the production off-switch.
func MineContext(ctx context.Context, db *uncertain.DB, opts Options) (*Result, error) {
	res, _, err := mineWithReuse(ctx, db, opts, nil)
	return res, err
}

// mineWithReuse runs a full mining pass with an optional subtree-reuse
// cache attached (nil for ordinary runs — see MineIncremental in
// incremental.go) and additionally returns the miner, so MineEvaluated can
// wrap its state (index, bitset freelist, tail memo) in an Evaluator.
func mineWithReuse(ctx context.Context, db *uncertain.DB, opts Options, reuse *ReuseCache) (*Result, *miner, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, nil, err
	}
	start := opts.Tracer.Now()
	m := newMiner(ctx, db, opts)
	m.reuse = reuse
	m.buildCandidates()

	switch opts.Search {
	case BFS:
		err = m.mineBFS()
	default:
		err = m.mineDFS()
	}
	if err != nil {
		return nil, nil, err
	}
	return m.result(start), m, nil
}

// newMiner is the constructor of every top-level miner — Mine, top-k, the
// naive baseline, and the standalone Evaluator behind the FCP helpers — so
// they all honour the same options: the tidset representation, the tracer
// recorder, and the cancellation context (nil for runs that cannot be
// cancelled). opts must already be normalized. The work-stealing pool's
// sub-miners copy their parent instead (scheduler.go).
func newMiner(ctx context.Context, db *uncertain.DB, opts Options) *miner {
	idx := db.Index()
	itemTids := tidsetsFor(idx, opts.Tidsets)
	var certain []uint64
	if opts.Shards < 2 && idx.Certain.Count() > 0 {
		certain = idx.Certain.DenseWords()
	}
	return &miner{
		opts:     opts,
		db:       db,
		probs:    db.Probs(),
		certain:  certain,
		allItems: supportedItems(idx.Items, itemTids, opts.MinSup),
		itemTids: itemTids,
		ctx:      ctx,
		rec:      opts.Tracer.Recorder(0),
	}
}

// supportedItems returns the items whose tidsets hold at least minSup
// transactions, in order. No other item can be a candidate or give any
// itemset a clause of nonzero probability (an extension's support is at
// most the item's own), so the miner never looks at them. items itself is
// returned when every item qualifies.
func supportedItems(items itemset.Itemset, tids map[itemset.Item]*bitset.Bitset, minSup int) itemset.Itemset {
	for i, e := range items {
		if tids[e].Count() >= minSup {
			continue
		}
		kept := append(itemset.Itemset(nil), items[:i]...)
		for _, e := range items[i+1:] {
			if tids[e].Count() >= minSup {
				kept = append(kept, e)
			}
		}
		return kept
	}
	return items
}

// result packages the run's itemsets, sorted lexicographically, with its
// Stats, its options and — when traced — the tracer's phase profile, with
// the wall time since start (a Tracer.Now reading, so wall time and phase
// spans share one clock) accounted as one mining run.
func (m *miner) result(start int64) *Result {
	sort.Slice(m.results, func(i, j int) bool {
		return itemset.Compare(m.results[i].Items, m.results[j].Items) < 0
	})
	res := &Result{Itemsets: m.results, Stats: m.stats, Options: m.opts}
	if tr := m.opts.Tracer; tr != nil {
		tr.AddMineWall(tr.Now() - start)
		res.Profile = tr.Profile()
	}
	return res
}

// tidsetsFor returns the per-item tidsets the run should mine on:
// the index's own density-chosen representations (TidsetsAuto), or a
// per-run copy with every tidset forced dense or compressed. Forcing never
// changes results — the hybrid bitset contract makes every operation
// representation-independent — it exists for the crosscheck equivalence
// suite and for memory experiments.
func tidsetsFor(idx *uncertain.Index, mode TidsetMode) map[itemset.Item]*bitset.Bitset {
	if mode == TidsetsAuto {
		return idx.Tidsets
	}
	out := make(map[itemset.Item]*bitset.Bitset, len(idx.Tidsets))
	for it, b := range idx.Tidsets {
		if mode == TidsetsCompressed {
			out[it] = b.Compacted()
		} else {
			out[it] = b.Materialized()
		}
	}
	return out
}

// buildCandidates is the first phase of Fig. 1: construct the single-item
// candidate set with Chernoff-Hoeffding pruning (Lemma 4.1) and the exact
// frequent-probability test. Items whose frequent probability cannot exceed
// pfct cannot occur in any probabilistic frequent closed itemset because
// Pr_F is anti-monotone and Pr_FC(X) ≤ Pr_F(X).
func (m *miner) buildCandidates() {
	defer m.rec.Span(obs.PhaseCandidates, 0, m.rec.Now())
	// Incremental rounds replay the recorded decision for items no changed
	// transaction contains: their tidsets hold the same transactions in the
	// same arrival order, so count, bound, exact tail, and the keep/prune
	// decision are all bit-identical to recomputation (DESIGN §15).
	var scratch itemset.Itemset
	if m.reuse != nil {
		scratch = itemset.Itemset{0}
	}
	// A delegated run plans the items ahead of this loop and fetches their
	// tails in fan-outs of at most batchChunk queries.
	kern := m.kernel()
	var plans []tailPlan
	if kern != nil && m.reuse == nil {
		plans = make([]tailPlan, len(m.allItems))
	}
	planned := 0
	for j, e := range m.allItems {
		tids := m.itemTids[e]
		if m.reuse != nil {
			if ce, ok := m.reuse.candidateReuse(e, scratch); ok {
				switch ce.outcome {
				case candCHPruned:
					m.stats.CHPruned++
				case candFreqPruned:
					m.stats.FreqPruned++
				default:
					m.cands = append(m.cands, candidate{item: e, tids: tids, cnt: ce.cnt, prF: ce.prF})
				}
				continue
			}
		}
		cnt := tids.Count()
		if cnt < m.opts.MinSup {
			continue
		}
		var plan *tailPlan
		if plans != nil {
			if j >= planned {
				planned = m.planCandidates(kern, plans, j)
			}
			plan = &plans[j]
		}
		prF, pruned := m.boundedTail(tids, nil, e, plan)
		if pruned {
			if m.reuse != nil {
				m.reuse.recordCandidate(e, candEntry{outcome: candCHPruned})
			}
			continue
		}
		if prF <= m.opts.PFCT {
			m.stats.FreqPruned++
			if m.reuse != nil {
				m.reuse.recordCandidate(e, candEntry{outcome: candFreqPruned})
			}
			continue
		}
		if m.reuse != nil {
			m.reuse.recordCandidate(e, candEntry{outcome: candKept, cnt: cnt, prF: prF})
		}
		m.cands = append(m.cands, candidate{item: e, tids: tids, cnt: cnt, prF: prF})
	}
	m.stats.CandidateItems = len(m.cands)
}

// boundedTail returns Pr_F of the target x+e (x alone when e < 0) with
// tidset b, or pruned = true when the Chernoff-Hoeffding bound (Lemma 4.1)
// shows Pr_F ≤ pfct. plan, non-nil on a delegated run, is the decision
// planTail made when the target's chunk was fetched: the bound was checked
// there, and the fetched PMFs are folded here and released. Without a plan
// the bound is checked now.
func (m *miner) boundedTail(b *bitset.Bitset, x itemset.Itemset, e itemset.Item, plan *tailPlan) (prF float64, pruned bool) {
	var g *gather
	if plan != nil {
		pruned = plan.pruned
	} else {
		gv := m.probsOf(b)
		g = &gv
		pruned = m.chPrunes(g)
	}
	if pruned {
		m.stats.CHPruned++
		return 0, true
	}
	if plan != nil && plan.parts != nil {
		parts := plan.parts
		plan.parts = nil
		return m.tailFetched(b, parts), false
	}
	return m.tailOf(b, g, x, e), false
}

// chPrunes is the Chernoff-Hoeffding rule (Lemma 4.1): the bound from the
// mean and count of the target's gathered tuples shows Pr_F ≤ pfct.
func (m *miner) chPrunes(g *gather) bool {
	return !m.opts.DisableCH && poibin.TailUpperBoundMean(g.mean, g.n(), m.opts.MinSup) <= m.opts.PFCT
}

// trace logs one enumeration event when tracing is enabled.
func (m *miner) trace(format string, args ...interface{}) {
	if m.opts.Trace != nil {
		fmt.Fprintf(m.opts.Trace, format+"\n", args...)
	}
}

// mineDFS drives the ProbFC recursion of Fig. 3 from the root.
func (m *miner) mineDFS() error {
	if m.opts.Parallelism > 1 && m.opts.Trace == nil && m.reuse == nil {
		return m.mineDFSParallel()
	}
	for pos := 0; pos < len(m.cands); pos++ {
		c := m.cands[pos]
		// Every candidate beats pfct when buildCandidates ran; only a top-k
		// run's rising threshold can overtake one since.
		if c.prF <= m.opts.PFCT {
			continue
		}
		if err := m.probFC(itemset.Itemset{c.item}, c.tids.Clone(), c.cnt, c.prF, pos+1); err != nil {
			return err
		}
	}
	return nil
}

// probFC is one node of the depth-first enumeration. Incremental runs
// dispatch through the reuse wrapper, which either splices the node's
// cached subtree emissions (when no changed transaction touches its tidset)
// or records them for the next round; ordinary runs go straight to the
// node body.
func (m *miner) probFC(x itemset.Itemset, tids *bitset.Bitset, count int, prF float64, startPos int) error {
	if m.reuse != nil {
		return m.probFCReuse(x, tids, count, prF, startPos)
	}
	return m.probFCNode(x, tids, count, prF, startPos)
}

// probFCNode is one node of the depth-first enumeration: X with tidset tids,
// count = |tids|, exact frequent probability prF; extensions come from
// candidate positions ≥ startPos.
func (m *miner) probFCNode(x itemset.Itemset, tids *bitset.Bitset, count int, prF float64, startPos int) error {
	if m.ctx != nil {
		if err := m.ctx.Err(); err != nil {
			return err
		}
	}
	m.stats.NodesVisited++
	if m.opts.Trace != nil {
		m.trace("visit %v (count=%d, PrF=%.4f)", x, count, prF)
	}

	// Span bookkeeping (no-ops when untraced): the detailed span covers the
	// whole subtree [nodeStart, record time], while the expand-phase
	// aggregate receives only this node's self time — wall time net of
	// inline child recursion (childNS) and of the checking cascade, which
	// records its own spans inside evaluate — so phase totals stay additive.
	nodeStart := m.rec.Now()
	var childNS int64

	// Superset pruning (Lemma 4.2): if some item e smaller than the last
	// item of X (so X is not a prefix of X+e) and not in X satisfies
	// count(X+e) = count(X), then X and every superset with X as prefix
	// have zero frequent closed probability — abandon the subtree. Because
	// the child tidset is a subset of tids, count equality is exactly
	// tids ⊆ tids(e), so the word loop bails out at the first uncovered
	// word instead of finishing a full popcount.
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
				if m.opts.Trace != nil {
					m.trace("  superset-prune %v: count(%v+%v) = count — subtree dead (Lemma 4.2)", x, x, itemset.Itemset{c.item})
				}
				m.rec.Node(len(x), nodeStart, m.rec.Now()-nodeStart)
				return nil
			}
		}
	}

	depth := len(x)
	exts := m.extBuf(depth)
	selfDead := false
	var err error
	// Batched sibling evaluation (DESIGN §13): candidate-extension tidset
	// intersections run through the AndBatch column sweep in chunks, so
	// each parent word is loaded once per chunk instead of once per
	// sibling. The per-sibling cascade below then consumes the
	// ready-intersected buffers in candidate order, byte-identical to the
	// former one-AndInto-per-sibling loop.
	nc := len(m.cands) - startPos
	var dsts, srcs []*bitset.Bitset
	var counts []int
	var plans []tailPlan
	kern := m.kernel()
	if nc > 0 {
		dsts, srcs, counts = m.batchBufs(depth, nc)
		if kern != nil {
			plans = m.planBuf(depth, nc)
		}
	}
	batched, consumed := 0, 0
	for pos := startPos; pos < len(m.cands); pos++ {
		i := pos - startPos
		if i >= batched {
			hi := batched + batchChunk
			if hi > nc {
				hi = nc
			}
			for j := batched; j < hi; j++ {
				srcs[j] = m.cands[startPos+j].tids
				dsts[j] = m.getBuf()
			}
			bitset.AndBatch(dsts[batched:hi], counts[batched:hi], tids, srcs[batched:hi])
			if plans != nil {
				// One fan-out for every tail this chunk may evaluate.
				for j := batched; j < hi; j++ {
					if counts[j] >= m.opts.MinSup {
						m.planTail(plans, j, dsts[j], shard.Query{Items: x, Ext: m.cands[startPos+j].item})
					}
				}
				m.fetchTails(kern, plans)
			}
			batched = hi
		}
		c := m.cands[pos]
		buf, cc := dsts[i], counts[i]
		consumed = i + 1
		if cc < m.opts.MinSup {
			// Pr_F(X+e) = 0: no subtree, and later no extension event.
			m.putBuf(buf)
			exts = append(exts, extension{item: c.item, cnt: cc})
			continue
		}
		rec := extension{item: c.item, tids: buf, cnt: cc}
		var plan *tailPlan
		if plans != nil {
			plan = &plans[i]
		}
		childPrF, pruned := m.boundedTail(buf, x, c.item, plan)
		if pruned {
			if m.opts.Trace != nil {
				m.trace("  ch-prune %v (Lemma 4.1 bound ≤ pfct)", x.Extend(c.item))
			}
			exts = append(exts, rec)
			continue
		}
		rec.prF, rec.hasPrF = childPrF, true
		exts = append(exts, rec)
		if childPrF <= m.opts.PFCT {
			// Pr_F is anti-monotone, so the whole X+e subtree is out.
			m.stats.FreqPruned++
			if m.opts.Trace != nil {
				m.trace("  freq-prune %v (PrF=%.4f ≤ pfct)", x.Extend(c.item), childPrF)
			}
			continue
		}
		if !m.opts.DisableSubset && cc == count {
			if m.opts.Trace != nil {
				m.trace("  subset-absorb %v into %v: later siblings skipped (Lemma 4.3)", x, x.Extend(c.item))
			}
			// Subset pruning (Lemma 4.3): X+e always co-occurs with X, so
			// X is never closed, and every later sibling X+f (f > e) and
			// its descendants avoid e and are therefore never closed
			// either. Only the X+e subtree can contain closed itemsets.
			selfDead = true
			m.stats.SubsetPruned++
			t := m.rec.Now()
			err = m.descend(x, c.item, buf, cc, childPrF, pos+1)
			childNS += m.rec.Now() - t
			break
		}
		t := m.rec.Now()
		err = m.descend(x, c.item, buf, cc, childPrF, pos+1)
		childNS += m.rec.Now() - t
		if err != nil {
			break
		}
	}
	// Siblings past an early break were intersected but never examined;
	// their batch buffers go straight back to the arena, and their fetched
	// tails are dropped.
	for i := consumed; i < batched; i++ {
		m.putBuf(dsts[i])
		if plans != nil {
			plans[i].parts = nil
		}
	}

	if err != nil || selfDead {
		m.releaseExts(depth, exts)
		m.rec.Node(depth, nodeStart, m.rec.Now()-nodeStart-childNS)
		return err
	}
	selfNS := m.rec.Now() - nodeStart - childNS
	ri, accepted, err := m.evaluate(x, tids, count, prF, exts, m.opts.PFCT)
	m.releaseExts(depth, exts)
	m.rec.Node(depth, nodeStart, selfNS)
	if err != nil {
		return err
	}
	if m.opts.Trace != nil {
		m.trace("  evaluate %v: PrFC≈%.4f in [%.4f, %.4f] via %v → accepted=%v",
			x, ri.Prob, ri.Lower, ri.Upper, ri.Method, accepted)
	}
	if accepted {
		m.accept(ri)
	}
	return nil
}

// descend recurses into the child X+e — inline in the common case, or as a
// task on the work-stealing pool when the node is shallow enough and some
// worker is starving. A spawned task owns a clone of the child tidset and
// its own itemset; the inline path renders X+e into a per-depth path
// buffer instead (probFC never retains its itemset argument — results and
// tasks clone it — so the buffer is free for the next sibling as soon as
// the recursion returns).
func (m *miner) descend(x itemset.Itemset, e itemset.Item, tids *bitset.Bitset, count int, prF float64, startPos int) error {
	if m.spawnable(len(x)) {
		m.stats.TasksSpawned++
		m.worker.push(task{items: x.Extend(e), tids: tids.Clone(), count: count, prF: prF, startPos: startPos})
		return nil
	}
	d := len(x)
	for len(m.pathBufs) <= d {
		m.pathBufs = append(m.pathBufs, nil)
	}
	child := append(m.pathBufs[d][:0], x...)
	child = append(child, e)
	m.pathBufs[d] = child
	return m.probFC(child, tids, count, prF, startPos)
}
