package core

import (
	"fmt"
	"math"

	"github.com/probdata/pfcim/internal/dnf"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/poibin"
	"github.com/probdata/pfcim/internal/uncertain"
)

// This file exposes the frequent-closed-probability computation for a
// single itemset, outside of a mining run: the exact inclusion–exclusion
// path (feasible when the itemset has few non-trivial extension events,
// regardless of database size — unlike the possible-world oracle, which is
// limited to ~26 transactions) and the raw ApproxFCP estimator. The
// approximation-quality experiment (Fig. 11) measures the estimator
// against the exact value through these entry points. Each builds the
// itemset's cascade state through a standalone Evaluator, so the clauses,
// their order and the clause system are exactly those Mine computes.

// fcpProfile builds x's cascade state at minSup. The Evaluator's options
// turn the Lemma 4.4 bound checks off and never choose the sampler, so its
// Evaluate resolves every itemset by exact inclusion–exclusion.
func fcpProfile(db *uncertain.DB, x itemset.Itemset, minSup int) (*Evaluator, *evalProfile, error) {
	e, err := NewEvaluator(db, Options{MinSup: minSup, PFCT: 0.5, DisableBounds: true, MaxExactClauses: math.MaxInt})
	if err != nil {
		return nil, nil, err
	}
	p, err := e.profile(x)
	if err != nil {
		return nil, nil, err
	}
	return e, p, nil
}

// ExactFCP computes Pr_FC(x) exactly: Pr_F(x) minus the inclusion–exclusion
// union of the extension events. It fails if the itemset has more than
// dnf.ExactUnionLimit non-trivial extension events.
func ExactFCP(db *uncertain.DB, x itemset.Itemset, minSup int) (float64, error) {
	e, p, err := fcpProfile(db, x, minSup)
	if err != nil {
		return 0, err
	}
	ri, _, err := e.m.decide(p, e.m.opts.PFCT)
	if err != nil {
		return 0, err
	}
	return ri.Prob, nil
}

// EstimateFCP runs the ApproxFCP Monte-Carlo estimator (Fig. 2 of the
// paper) on a single itemset with the given tolerance ε and confidence
// parameter δ, both in (0,1), returning the estimated Pr_FC(x).
func EstimateFCP(db *uncertain.DB, x itemset.Itemset, minSup int, eps, delta float64, seed int64) (float64, error) {
	// Checked here rather than through Options: normalize would turn a 0
	// into the default instead of rejecting it.
	if !(eps > 0 && eps < 1) {
		return 0, fmt.Errorf("core: epsilon must be in (0,1), got %v", eps)
	}
	if !(delta > 0 && delta < 1) {
		return 0, fmt.Errorf("core: delta must be in (0,1), got %v", delta)
	}
	e, p, err := fcpProfile(db, x, minSup)
	if err != nil {
		return 0, err
	}
	if p.dead {
		return 0, nil
	}
	if len(p.probs) == 0 {
		return clamp01(p.prF - p.slack/2), nil
	}
	n := dnf.SampleSize(len(p.probs), eps, delta)
	// The estimator's stream is the same splitmix64 generator the miner
	// uses per node, seeded directly from the caller's seed; the estimate
	// is ε/δ-bounded regardless of which uniform stream drives it.
	union, err := e.m.karpLuby(p.sys, poibin.NewSM64(splitmix64(uint64(seed))), p.probs, n, len(x))
	if err != nil {
		return 0, err
	}
	return clamp01(p.prF - union - p.slack/2), nil
}

// SamplerActiveItemset reports whether EstimateFCP on x involves actual
// sampling (at least one non-negligible extension event). Fig. 11 uses it
// to select itemsets on which approximation error is observable.
func SamplerActiveItemset(db *uncertain.DB, x itemset.Itemset, minSup int) (bool, error) {
	n, err := ClauseCount(db, x, minSup)
	return n > 0, err
}

// ClauseCount returns the number of non-negligible extension events of x —
// the m of the ApproxFCP DNF. With m ≤ 1 the Karp–Luby estimator is exact
// (a single clause's probability is computed, not sampled), so estimation
// error is only observable for m ≥ 2.
func ClauseCount(db *uncertain.DB, x itemset.Itemset, minSup int) (int, error) {
	_, p, err := fcpProfile(db, x, minSup)
	if err != nil {
		return 0, err
	}
	return len(p.probs), nil
}
