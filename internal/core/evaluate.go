package core

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/probdata/pfcim/internal/bitset"
	"github.com/probdata/pfcim/internal/dnf"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/obs"
	"github.com/probdata/pfcim/internal/poibin"
)

// clause is one extension event C_i, prepared for the union machinery.
type clause struct {
	item  itemset.Item
	b     *bitset.Bitset // tidset of X + e_i (within tids of X)
	prob  float64        // Pr(C_i)
	owned bool           // b came from the arena and must return there;
	// borrowed clauses point into the caller's extension records
}

// clauseSorter orders clauses by descending probability. It is sorted
// through a pointer receiver held on the miner so sort.Sort boxes a plain
// pointer instead of copying a slice header to the heap per evaluation.
type clauseSorter []clause

func (s *clauseSorter) Len() int           { return len(*s) }
func (s *clauseSorter) Less(i, j int) bool { return (*s)[i].prob > (*s)[j].prob }
func (s *clauseSorter) Swap(i, j int)      { (*s)[i], (*s)[j] = (*s)[j], (*s)[i] }

// sortClauses sorts clauses in place by descending probability — the order
// the pairwise bound budget and the Karp–Luby min-index check rely on.
func (m *miner) sortClauses(clauses []clause) {
	m.clauseSort = clauses
	sort.Sort(&m.clauseSort)
}

// evalProfile is the checking-cascade state (§IV.B) of one itemset, and
// the only such state: the enumeration frameworks, the naive baseline,
// top-k, the sweep Evaluator and the single-itemset FCP helpers all build
// one with buildProfile and settle it with decide. Everything before the
// decision — the frequent probability, the sorted clauses, the clause
// system, the first-order bounds, and the lazily filled pairwise bounds
// and union — is independent of pfct, so a profile can be decided again at
// another threshold (the sweep Evaluator's replay). Mining runs build it
// in the miner's scratch (miner.evalBuf); the Evaluator keeps owned copies.
type evalProfile struct {
	x   itemset.Itemset
	prF float64 // exact frequent probability Pr_F(x)

	dead      bool // x is infrequent or some extension always co-occurs: Pr_FC = 0
	noClauses bool // no extension event possible: Pr_FC = Pr_F

	slack      float64
	clauses    []clause // sorted by descending probability; nil once released
	sys        *dnf.System
	probs      []float64
	foLo, foHi float64 // first-order union bounds

	pwDone     bool
	pwLo, pwHi float64 // pairwise (Lemma 4.4) union bounds

	unionDone bool
	union     float64 // raw exact/sampled union, before slack and clamping
	method    Method

	// boundStart is when the bound-check phase of the pending decision
	// began; decide closes the span once the bounds have had their say.
	boundStart int64
}

// evaluate decides whether the enumeration node X (with tidset tids,
// |tids| = count and exact frequent probability prF) is a probabilistic
// frequent closed itemset at pfct. exts, when non-nil, holds the extension
// records the enumeration loop already computed for candidate positions ≥
// startPos; their tidsets and exact frequent probabilities are reused
// instead of recomputed. The returned item owns a clone of x when
// accepted, so callers may retain it while reusing their path buffers.
func (m *miner) evaluate(x itemset.Itemset, tids *bitset.Bitset, count int, prF float64, exts []extension, pfct float64) (ResultItem, bool, error) {
	// The bound-check span covers the cascade up to the Lemma 4.4 verdict:
	// clause construction, the clause system, and both bound levels. The
	// exact/sampling resolutions that follow record their own spans.
	start := m.rec.Now()
	p := &m.evalBuf
	if err := m.buildProfile(p, x, tids, count, prF, exts, false); err != nil {
		m.releaseClauses(p)
		return ResultItem{}, false, err
	}
	p.boundStart = start
	ri, ok, err := m.decide(p, pfct)
	m.releaseClauses(p)
	if ok {
		ri.Items = x.Clone()
	}
	return ri, ok, err
}

// buildProfile fills p with the pfct-independent stages of x's cascade:
// the clauses of Definition 4.1 in descending probability order, their
// clause system, and the free first-order bounds. owned profiles copy the
// clause records and build a validated clause system of their own; the
// others borrow the miner's scratch, valid until the next build. On error
// the caller still releases p's clauses.
func (m *miner) buildProfile(p *evalProfile, x itemset.Itemset, tids *bitset.Bitset, count int, prF float64, exts []extension, owned bool) error {
	*p = evalProfile{x: x, prF: prF}
	if count < m.opts.MinSup {
		// Pr_F(X) = 0. The enumeration never gets here; standalone
		// evaluations of arbitrary itemsets do.
		p.dead = true
		return nil
	}
	m.stats.Evaluated++
	clauses, slack, dead := m.buildClauses(x, tids, count, exts)
	p.slack, p.dead = slack, dead
	if dead {
		// Some extension always co-occurs with X: Pr_FC(X) = 0.
		return nil
	}
	if len(clauses) == 0 && slack == 0 {
		// No extension event is possible: X is closed whenever frequent.
		p.noClauses = true
		return nil
	}
	if !owned {
		m.sortClauses(clauses)
		p.clauses = clauses
		p.sys, p.probs = m.clauseSystem(tids, clauses)
	} else {
		// buildClauses returns the miner's scratch slice; an owned profile
		// keeps its own copy. (The clause tidsets themselves are arena sets
		// the profile holds until its union is resolved.)
		p.clauses = append([]clause(nil), clauses...)
		m.sortClauses(p.clauses)
		var err error
		if p.sys, p.probs, err = m.clauseSystemOwned(tids, p.clauses); err != nil {
			return err
		}
	}

	// First-order bounds are free: union ≥ max Pr(C_i), union ≤ min(1, ΣPr(C_i)).
	s1, maxClause := 0.0, 0.0
	for _, pr := range p.probs {
		s1 += pr
		if pr > maxClause {
			maxClause = pr
		}
	}
	p.foLo = maxClause
	p.foHi = s1 + slack
	if p.foHi > 1 {
		p.foHi = 1
	}
	return nil
}

// decide settles p at threshold pfct and returns x's ResultItem exactly as
// a Mine at pfct reports it. It runs the threshold-dependent half of
// §IV.B: the Lemma 4.4 checks on the first-order and then the pairwise
// bounds, and, when neither settles it, the exact inclusion–exclusion or
// sampled union clamped into the bound sandwich. The pairwise bounds and
// the union are computed at most once per profile, so replaying a profile
// at another pfct never repeats them.
func (m *miner) decide(p *evalProfile, pfct float64) (ResultItem, bool, error) {
	depth := len(p.x)
	ri := ResultItem{Items: p.x, FreqProb: p.prF}
	if p.dead || p.noClauses {
		m.rec.Span(obs.PhaseBoundCheck, depth, p.boundStart)
		if p.dead {
			ri.Method = MethodExact
			return ri, false, nil
		}
		ri.Prob, ri.Lower, ri.Upper, ri.Method = p.prF, p.prF, p.prF, MethodNoClauses
		return ri, ri.Prob > pfct, nil
	}

	lo, hi := p.foLo, p.foHi
	if !m.opts.DisableBounds {
		if accepted, done := m.decideByBounds(&ri, lo, hi, pfct); done {
			m.rec.Span(obs.PhaseBoundCheck, depth, p.boundStart)
			return ri, accepted, nil
		}
		// Second-order (Lemma 4.4) bounds over the most probable clauses.
		if !p.pwDone {
			p.pwLo, p.pwHi = m.pairwiseBounds(p.sys, p.probs, p.slack)
			p.pwDone = true
		}
		if p.pwLo > lo {
			lo = p.pwLo
		}
		if p.pwHi < hi {
			hi = p.pwHi
		}
		lo, hi = reconcileBounds(lo, hi)
		if accepted, done := m.decideByBounds(&ri, lo, hi, pfct); done {
			m.rec.Span(obs.PhaseBoundCheck, depth, p.boundStart)
			return ri, accepted, nil
		}
	}
	m.rec.Span(obs.PhaseBoundCheck, depth, p.boundStart)

	if err := m.resolveUnion(p); err != nil {
		return ResultItem{}, false, err
	}
	union := p.union + p.slack/2 // dropped-clause slack, ≤ len(clauses)·1e-15
	// Keep the estimate inside the analytic sandwich.
	if union < lo {
		union = lo
	}
	if union > hi {
		union = hi
	}
	ri.Prob = clamp01(p.prF - union)
	ri.Lower = clamp01(p.prF - hi)
	ri.Upper = clamp01(p.prF - lo)
	ri.Method = p.method
	return ri, ri.Prob > pfct, nil
}

// resolveUnion is the checking phase: it computes the extension-event
// union once per profile — exact inclusion–exclusion when the clause
// system is small, the Karp–Luby ApproxFCP estimator with the node's
// deterministic seed otherwise — then releases the clauses, which nothing
// reads after the union.
func (m *miner) resolveUnion(p *evalProfile) error {
	if p.unionDone {
		return nil
	}
	depth := len(p.x)
	var err error
	if m.opts.MaxExactClauses >= 0 && len(p.clauses) <= m.opts.MaxExactClauses {
		p.union, err = m.exactUnion(p.sys, depth)
		p.method = MethodExact
	} else {
		p.union, err = m.sampleUnion(p.sys, m.nodeRNG(p.x), p.probs, len(p.clauses), depth)
		p.method = MethodSampled
	}
	if err != nil {
		return err
	}
	p.unionDone = true
	m.releaseClauses(p)
	return nil
}

// releaseClauses returns p's arena-owned clause tidsets to the miner;
// borrowed ones are released by the owner of the extension records.
func (m *miner) releaseClauses(p *evalProfile) {
	for _, c := range p.clauses {
		if c.owned {
			m.putBuf(c.b)
		}
	}
	p.clauses, p.sys, p.probs = nil, nil, nil
}

// exactUnion resolves the extension-event union by inclusion–exclusion
// under an exact-union span.
func (m *miner) exactUnion(sys *dnf.System, depth int) (float64, error) {
	t := m.rec.Now()
	union, err := sys.ExactUnion()
	m.rec.Span(obs.PhaseExactUnion, depth, t)
	if err != nil {
		return 0, err
	}
	m.stats.ExactUnions++
	return union, nil
}

// sampleUnion estimates the union with the Karp–Luby FPRAS at the
// (ε, δ)-derived sample size for nClauses clauses.
func (m *miner) sampleUnion(sys *dnf.System, rng *poibin.SM64, probs []float64, nClauses, depth int) (float64, error) {
	n := dnf.SampleSize(nClauses, m.opts.Epsilon, m.opts.Delta)
	return m.karpLuby(sys, rng, probs, n, depth)
}

// karpLuby runs the sampler for exactly n draws under a sampling span; the
// standalone EstimateFCP entry point calls it directly with its own sample
// size.
func (m *miner) karpLuby(sys *dnf.System, rng *poibin.SM64, probs []float64, n, depth int) (float64, error) {
	t := m.rec.Now()
	union, err := sys.KarpLuby(rng, probs, n)
	m.rec.Span(obs.PhaseSample, depth, t)
	if err != nil {
		return 0, err
	}
	m.stats.Sampled++
	m.stats.SamplesDrawn += n
	return union, nil
}

// reconcileBounds intersects the first-order and pairwise union intervals.
// Both contain the true union analytically, so an empty intersection can
// only be float rounding noise of a few ulps (the de Caen lower bound and
// the Kwerel upper bound evaluate the same moments in different orders);
// collapse it to the midpoint so the Lemma 4.4 sandwich stays ordered.
func reconcileBounds(lo, hi float64) (float64, float64) {
	if hi < lo {
		mid := (lo + hi) / 2
		return mid, mid
	}
	return lo, hi
}

// decideByBounds applies the Lemma 4.4 pruning rules to the union interval
// [unionLower, unionUpper] at threshold pfct: reject when the upper bound
// on Pr_FC cannot exceed pfct, accept when the lower bound already does.
// When the bounds settle it, ri (whose FreqProb is Pr_F) receives the
// Pr_FC sandwich with its midpoint as the estimate, and done is true.
func (m *miner) decideByBounds(ri *ResultItem, unionLower, unionUpper, pfct float64) (accepted, done bool) {
	fcLower := clamp01(ri.FreqProb - unionUpper)
	fcUpper := clamp01(ri.FreqProb - unionLower)
	switch {
	case fcUpper <= pfct:
		m.stats.BoundRejected++
		ri.Method = MethodBoundRejected
	case fcLower > pfct:
		m.stats.BoundAccepted++
		ri.Method, accepted = MethodBoundAccepted, true
	default:
		return false, false
	}
	ri.Lower, ri.Upper, ri.Prob = fcLower, fcUpper, (fcLower+fcUpper)/2
	return accepted, true
}

// clauseChunk is how many uncovered items are intersected per AndBatch
// call inside buildClauses. Lazy chunking bounds the intersections wasted
// when an early item proves the candidate dead.
const clauseChunk = 32

// buildClauses computes the extension events of Definition 4.1 for every
// item not in X. It returns the clauses with non-negligible probability,
// the total probability mass of dropped clauses (slack), and dead = true
// when some extension provably always co-occurs with X (count equality), in
// which case Pr_FC(X) = 0.
//
// exts, when non-nil, are the enumeration loop's extension records in
// ascending item order; items covered by a record reuse its intersected
// tidset and (when present) its exact frequent probability, so only items
// the enumeration never probed — candidate positions below startPos and
// non-candidate items — pay for an intersection and a Poisson-binomial
// tail here.
func (m *miner) buildClauses(x itemset.Itemset, tids *bitset.Bitset, count int, exts []extension) (clauses []clause, slack float64, dead bool) {
	// The clause records live in a per-miner scratch slice; the cascade is
	// never reentered on one miner, and owned profiles, which outlive the
	// next evaluation, clone what they retain.
	clauses = m.clausesBuf[:0]

	// Collect the items with no extension record up front, so their
	// intersections can run through the batched sibling kernel; the main
	// loop below still examines every item in ascending order, consuming
	// batch results as it reaches them.
	uncov := m.uncovBuf[:0]
	j := 0
	for _, e := range m.allItems {
		for j < len(exts) && exts[j].item < e {
			j++
		}
		if j < len(exts) && exts[j].item == e {
			j++
			continue
		}
		if !x.Contains(e) {
			uncov = append(uncov, e)
		}
	}
	m.uncovBuf = uncov
	dsts, srcs, ucounts := m.uncovBufs(len(uncov))
	ui, batched := 0, 0

	release := func() {
		for _, c := range clauses {
			if c.owned {
				m.putBuf(c.b)
			}
		}
		for i := ui; i < batched; i++ {
			m.putBuf(dsts[i])
		}
		m.clausesBuf = clauses[:0]
	}
	j = 0
	for _, e := range m.allItems {
		for j < len(exts) && exts[j].item < e {
			j++
		}
		if j < len(exts) && exts[j].item == e {
			rec := &exts[j]
			j++
			if rec.cnt == count {
				// tids(X) ⊆ tids(e): X and X+e always appear together.
				release()
				return nil, 0, true
			}
			if rec.cnt < m.opts.MinSup {
				// Pr_F(X+e) = 0, hence Pr(C_e) = 0.
				continue
			}
			absent, negligible := m.absentFactor(tids, rec.tids)
			if negligible {
				slack += zeroClauseEps // conservative cap on the dropped mass
				continue
			}
			p := rec.prF
			if !rec.hasPrF {
				// The extension was Chernoff-Hoeffding-pruned, so its exact
				// tail was never computed; pay for it now.
				p = m.tailOf(rec.tids, nil, x, e)
			}
			p *= absent
			m.stats.ClauseEvaluated++
			if p < zeroClauseEps {
				slack += p
				continue
			}
			clauses = append(clauses, clause{item: e, b: rec.tids, prob: p})
			continue
		}
		if x.Contains(e) {
			continue
		}
		if ui >= batched {
			hi := batched + clauseChunk
			if hi > len(uncov) {
				hi = len(uncov)
			}
			for i := batched; i < hi; i++ {
				srcs[i] = m.itemTids[uncov[i]]
				dsts[i] = m.getBuf()
			}
			bitset.AndBatch(dsts[batched:hi], ucounts[batched:hi], tids, srcs[batched:hi])
			batched = hi
		}
		b, bc := dsts[ui], ucounts[ui]
		ui++
		if bc == count {
			// tids(X) ⊆ tids(e): X and X+e always appear together. Release
			// everything collected so far; the caller sees dead = true.
			m.putBuf(b)
			release()
			return nil, 0, true
		}
		if bc < m.opts.MinSup {
			// Pr_F(X+e) = 0, hence Pr(C_e) = 0.
			m.putBuf(b)
			continue
		}
		absent, negligible := m.absentFactor(tids, b)
		if negligible {
			slack += zeroClauseEps // conservative cap on the dropped mass
			m.putBuf(b)
			continue
		}
		p := absent * m.tailOf(b, nil, x, e)
		m.stats.ClauseEvaluated++
		if p < zeroClauseEps {
			slack += p
			m.putBuf(b)
			continue
		}
		clauses = append(clauses, clause{item: e, b: b, prob: p, owned: true})
	}
	m.clausesBuf = clauses
	return clauses, slack, false
}

// uncovBufs returns the uncovered-item batch buffers with room for nc
// intersections.
func (m *miner) uncovBufs(nc int) (dsts, srcs []*bitset.Bitset, counts []int) {
	if cap(m.ubDsts) < nc {
		m.ubDsts = make([]*bitset.Bitset, nc)
		m.ubSrcs = make([]*bitset.Bitset, nc)
		m.ubCounts = make([]int, nc)
	}
	return m.ubDsts[:nc], m.ubSrcs[:nc], m.ubCounts[:nc]
}

// absentFactor returns Pr(C_e)'s tuple-absence product
// Π_{T ∈ tids\b}(1−p_T), flagging it as negligible once it falls below
// zeroClauseEps (the clause is then dropped and accounted as slack).
// Sharded runs fold the product per shard instead (shard.go).
func (m *miner) absentFactor(tids, b *bitset.Bitset) (absent float64, negligible bool) {
	if m.sharded() {
		return m.shardAbsentFactor(tids, b)
	}
	absent = 1.0
	bitset.ForEachDiff(tids, b, func(tid int) bool {
		absent *= 1 - m.probs[tid]
		if absent < zeroClauseEps {
			negligible = true
			return false
		}
		return true
	})
	return absent, negligible
}

// clauseSystem wraps the kept clauses in the miner's reusable dnf.System
// plus the probability vector aligned with it. The system, the clause
// slice, and the probability vector are scratch — valid until the next
// clauseSystem call on this miner; owned profiles use clauseSystemOwned. The
// subset validation of dnf.NewSystem is skipped: every clause tidset here
// is an AndInto/AndBatch intersection with tids, a subset by construction.
func (m *miner) clauseSystem(tids *bitset.Bitset, clauses []clause) (*dnf.System, []float64) {
	bs := m.sysBs[:0]
	probs := m.sysProbs[:0]
	for _, c := range clauses {
		bs = append(bs, c.b)
		probs = append(probs, c.prob)
	}
	m.sysBs, m.sysProbs = bs, probs
	m.sysBuf.Reuse(tids, m.probs, m.opts.MinSup, bs)
	m.sysBuf.TailFn = m.dnfTailFn()
	m.sysBuf.Sampler = &m.sampler
	return &m.sysBuf, probs
}

// clauseSystemOwned is clauseSystem with caller-owned storage and the full
// dnf.NewSystem validation, for callers whose clause system outlives the
// next evaluation. It still samples with the miner's Karp–Luby state: the
// union is resolved on this miner, one profile at a time.
func (m *miner) clauseSystemOwned(tids *bitset.Bitset, clauses []clause) (*dnf.System, []float64, error) {
	bs := make([]*bitset.Bitset, len(clauses))
	probs := make([]float64, len(clauses))
	for i, c := range clauses {
		bs[i] = c.b
		probs[i] = c.prob
	}
	sys, err := dnf.NewSystem(tids, m.probs, m.opts.MinSup, bs)
	if err != nil {
		return nil, nil, fmt.Errorf("core: building clause system: %w", err)
	}
	sys.TailFn = m.dnfTailFn()
	sys.Sampler = &m.sampler
	return sys, probs, nil
}

// maxPairClauses caps how many clauses (the most probable ones) take part
// in the pairwise de Caen / Kwerel bound computation; the bounds remain
// sound for the full clause set.
const maxPairClauses = 16

// pairwiseBounds computes the de Caen / Kwerel sandwich of Lemma 4.4 over
// the top maxPairClauses clauses (sorted by descending probability) and
// extends it soundly to the full clause set: the partial de Caen bound is a
// valid lower bound on the full union, and the remaining clauses join the
// upper bound additively.
func (m *miner) pairwiseBounds(sys *dnf.System, probs []float64, slack float64) (lo, hi float64) {
	k := len(probs)
	if k > maxPairClauses {
		k = maxPairClauses
	}
	// The top-k prefix view lives in a second reusable System so its
	// intersection and probability scratch persists across evaluations.
	m.subBuf.Reuse(sys.Base, sys.Probs, sys.MinSup, sys.Clauses[:k])
	m.subBuf.TailFn = sys.TailFn
	sums := m.subBuf.ComputeSumsReuse()
	m.stats.ClauseEvaluated += k * (k - 1) / 2
	lo, hi = dnf.UnionBounds(sums)
	rest := slack
	for _, p := range probs[k:] {
		rest += p
	}
	hi += rest
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// gather is what probsOf collects for one tidset: the existence
// probabilities of its uncertain tuples in ascending tid order, the number
// of its certain (p = 1) tuples, and the support's mean Σ probs + certain,
// the Chernoff–Hoeffding bound's input. A miner without a certain-tuple
// mask gathers every tuple, with certain = 0.
type gather struct {
	probs   []float64
	certain int
	mean    float64
}

// n is the number of tuples in the gathered tidset.
func (g *gather) n() int { return len(g.probs) + g.certain }

// probsOf gathers b into a buffer owned by the miner. Every caller
// consumes the probabilities (via a Poisson-binomial computation, which
// never retains them) before calling probsOf again, so one buffer per
// miner suffices.
func (m *miner) probsOf(b *bitset.Bitset) gather {
	words := b.DenseWords()
	if words == nil {
		return m.probsOfIDs(b)
	}
	// Gather over the dense words directly: this runs once per tail
	// evaluation, and the per-bit closure call of ForEach is measurable
	// there. The certain tuples of a word are counted, not visited.
	buf, all, cert := m.probsBuf[:0], m.probs, m.certain
	sum, c := 0.0, 0
	for wi, w := range words {
		if cert != nil {
			c += bits.OnesCount64(w & cert[wi])
			w &^= cert[wi]
		}
		base := wi * 64
		for w != 0 {
			p := all[base+bits.TrailingZeros64(w)]
			buf = append(buf, p)
			sum += p
			w &= w - 1
		}
	}
	m.probsBuf = buf
	return gather{probs: buf, certain: c, mean: sum + float64(c)}
}

// probsOfIDs is probsOf for a compressed tidset. It is a function of its
// own so that its closure's captured variables stay out of the dense
// loop's registers.
func (m *miner) probsOfIDs(b *bitset.Bitset) gather {
	buf, cert := m.probsBuf[:0], m.certain
	sum, c := 0.0, 0
	b.ForEach(func(tid int) bool {
		if cert != nil && cert[tid>>6]&(1<<(uint(tid)&63)) != 0 {
			c++
			return true
		}
		p := m.probs[tid]
		buf = append(buf, p)
		sum += p
		return true
	})
	m.probsBuf = buf
	return gather{probs: buf, certain: c, mean: sum + float64(c)}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
