package core

import (
	"github.com/probdata/pfcim/internal/obs"
	"github.com/probdata/pfcim/internal/pfim"
	"github.com/probdata/pfcim/internal/uncertain"
)

// NaiveMine is the Fig. 5 baseline: first enumerate every probabilistic
// frequent itemset (the TODIS-equivalent result set of pfim.Mine), then
// run the ApproxFCP Monte-Carlo estimator on each one, with no bounding or
// pruning. Pr_FC(X) ≤ Pr_F(X), so restricting to probabilistic frequent
// itemsets at threshold pfct loses no results.
func NaiveMine(db *uncertain.DB, opts Options) (*Result, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	// Force the naive configuration: every candidate is resolved by the
	// sampler; no bound short-circuits.
	opts.DisableBounds = true
	opts.MaxExactClauses = -1

	start := opts.Tracer.Now()
	m := newMiner(nil, db, opts)
	pfis := pfim.Mine(db, pfim.Options{MinSup: opts.MinSup, PFT: opts.PFCT})
	m.rec.Span(obs.PhaseCandidates, 0, start)
	rootStart, claimed := m.rec.Now(), m.rec.Claimed()

	idx := db.Index()
	for _, pfi := range pfis {
		m.stats.NodesVisited++
		tids := idx.TidsetOf(pfi.Items)
		ri, accepted, err := m.evaluate(pfi.Items, tids, tids.Count(), pfi.FreqProb, nil, opts.PFCT)
		if err != nil {
			return nil, err
		}
		if accepted {
			m.results = append(m.results, ri)
		}
	}
	return m.result(start, rootStart, claimed), nil
}
