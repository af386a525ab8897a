package core

// Evaluator is the per-candidate re-evaluation hook the sweep engine
// (internal/sweep) is built on: it decides "is X a probabilistic frequent
// closed itemset at threshold pfct?" for caller-chosen itemsets and
// thresholds, reusing the dataset index, the bitset arena, and the
// Poisson-binomial tail memo of the miner it wraps.
//
// The replay is sound and byte-identical because every quantity the
// checking cascade of §IV.B computes — the exact frequent probability, the
// clause system, the first-order and Lemma 4.4 pairwise bounds, and the
// exact or sampled union (seeded per node from (Options.Seed, itemset),
// DESIGN §8.3) — is independent of pfct. The threshold only selects the
// stage at which the cascade stops, and the Evaluator runs Mine's own
// cascade (buildProfile and decide, evaluate.go), so replaying the cached
// stage values against a different pfct reproduces exactly what an
// independent Mine at that pfct would have computed for the same itemset.
// Each stage is evaluated lazily and at most once per itemset: candidates
// settled by the cached bounds never pay for union re-estimation.
//
// An Evaluator is not safe for concurrent use (it shares the miner's
// scratch buffers).

import (
	"context"
	"fmt"

	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/uncertain"
)

// Evaluator re-evaluates single itemsets at arbitrary pfct thresholds.
// Build one with NewEvaluator, or get one wrapping a full run's state from
// MineEvaluated.
type Evaluator struct {
	m        *miner
	profiles map[string]*evalProfile
}

// NewEvaluator builds a standalone Evaluator over db. opts must carry the
// MinSup, Epsilon, Delta and Seed the evaluations should use; opts.PFCT
// participates only in validation (each Evaluate call names its own
// threshold).
func NewEvaluator(db *uncertain.DB, opts Options) (*Evaluator, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	return newEvaluator(newMiner(nil, db, opts)), nil
}

func newEvaluator(m *miner) *Evaluator {
	return &Evaluator{m: m, profiles: make(map[string]*evalProfile)}
}

// MineEvaluated is MineContext plus the per-candidate re-evaluation hook:
// the returned Evaluator wraps the finished run's miner, so follow-up
// Evaluate calls reuse its index, arena, and tail memo. This is the
// entry point the sweep engine uses — one full enumeration at the loosest
// threshold, then per-candidate replay at the tighter ones.
func MineEvaluated(ctx context.Context, db *uncertain.DB, opts Options) (*Result, *Evaluator, error) {
	res, m, err := mineWithReuse(ctx, db, opts, nil)
	if err != nil {
		return nil, nil, err
	}
	return res, newEvaluator(m), nil
}

// Stats returns the cumulative work counters of the wrapped miner,
// including the base run (for MineEvaluated) and every Evaluate call so
// far. Callers attributing work to phases snapshot before and after and
// take Stats.Delta.
func (e *Evaluator) Stats() Stats { return e.m.stats }

// Evaluate decides whether x is a probabilistic frequent closed itemset at
// threshold pfct, returning its ResultItem exactly as a full Mine at pfct
// would report it. The boolean is the acceptance verdict; the ResultItem is
// meaningful whenever the itemset is probabilistically frequent (its fields
// mirror the stage of the cascade that settled the decision).
func (e *Evaluator) Evaluate(x itemset.Itemset, pfct float64) (ResultItem, bool, error) {
	if pfct <= 0 || pfct >= 1 {
		return ResultItem{}, false, fmt.Errorf("core: pfct must be in (0,1), got %v", pfct)
	}
	start := e.m.rec.Now()
	p, err := e.profile(x)
	if err != nil {
		return ResultItem{}, false, err
	}
	p.boundStart = start
	return e.m.decide(p, pfct)
}

// profile returns x's cached cascade state, building the pfct-independent
// stages (tidset, frequent probability, clause system, first-order bounds)
// on first sight.
func (e *Evaluator) profile(x itemset.Itemset) (*evalProfile, error) {
	key := x.Key()
	if p, ok := e.profiles[key]; ok {
		return p, nil
	}
	m := e.m
	tids := m.db.Index().TidsetOf(x)
	count := tids.Count()
	prF := 0.0
	if count >= m.opts.MinSup {
		prF = m.tailOf(tids, nil, x, -1)
	}
	p := &evalProfile{}
	if err := m.buildProfile(p, x.Clone(), tids, count, prF, nil, true); err != nil {
		m.releaseClauses(p)
		return nil, err
	}
	e.profiles[key] = p
	return p, nil
}
