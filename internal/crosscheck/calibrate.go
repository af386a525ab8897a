package crosscheck

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/world"
)

// Calibration grades ApproxFCP, the Karp–Luby estimator behind every
// sampled Pr_FC (DESIGN §3.5), against the world oracle. Its promise is
// statistical: an estimate misses the exact Pr_FC by at least ε·union
// (union = Pr_F − Pr_FC, the probability the sampler estimates) with
// probability at most δ. So the grading counts misses over many seeded
// databases and fails only when the count exceeds what δ allows, a
// binomial upper quantile at calibAlpha. A verdict on the wrong side of
// pfct is a miss too, unless the candidate lies within ε·union of pfct,
// where either side is inside the promise.
const (
	// calibMaxTrans and calibMaxItems bound the calibration databases: the
	// oracle enumerates 2ⁿ worlds per case.
	calibMaxTrans = 14
	calibMaxItems = 6
	// calibAlpha is the false-alarm rate of the gate for an estimator that
	// keeps its promise exactly.
	calibAlpha = 1e-6
	// calibMinUnion is the smallest union a candidate that pfct is placed
	// next to may have: with less, ε·union is below the oracle's rounding.
	calibMinUnion = 0.02
)

// CalibrationReport tallies graded ApproxFCP outputs over one or more
// cases.
type CalibrationReport struct {
	Delta     float64 // the δ every graded estimate was drawn under
	Estimates int     // sampled estimates graded
	Missed    int     // estimates at least ε·union from the exact Pr_FC
	Verdicts  int     // sampled verdicts graded: at least ε·union from pfct
	Wrong     int     // graded verdicts on the wrong side of pfct
	Near      int     // sampled candidates within ε·union of pfct
}

// Add accumulates o into r.
func (r *CalibrationReport) Add(o CalibrationReport) {
	r.Delta = o.Delta
	r.Estimates += o.Estimates
	r.Missed += o.Missed
	r.Verdicts += o.Verdicts
	r.Wrong += o.Wrong
	r.Near += o.Near
}

// Check fails when the estimate misses or the wrong verdicts exceed the
// binomial upper quantile that δ allows over their counts.
func (r CalibrationReport) Check() error {
	if q := binomialQuantile(r.Estimates, r.Delta, calibAlpha); r.Missed > q {
		return fmt.Errorf("crosscheck: %d of %d sampled estimates missed by ≥ ε·union; δ = %g allows %d", r.Missed, r.Estimates, r.Delta, q)
	}
	if q := binomialQuantile(r.Verdicts, r.Delta, calibAlpha); r.Wrong > q {
		return fmt.Errorf("crosscheck: %d of %d sampled verdicts wrong; δ = %g allows %d", r.Wrong, r.Verdicts, r.Delta, q)
	}
	return nil
}

func (r CalibrationReport) String() string {
	return fmt.Sprintf("%d estimates, %d missed; %d verdicts, %d wrong; %d near pfct",
		r.Estimates, r.Missed, r.Verdicts, r.Wrong, r.Near)
}

// binomialQuantile returns the smallest c with Pr[Bin(n, p) > c] ≤ alpha.
func binomialQuantile(n int, p, alpha float64) int {
	if n == 0 || p <= 0 {
		return 0
	}
	// Walk the PMF up from 0 in log space; n is at most a few thousand.
	lq, lp := math.Log1p(-p), math.Log(p)
	logPMF := float64(n) * lq
	cdf := 0.0
	for c := 0; c < n; c++ {
		cdf += math.Exp(logPMF)
		if 1-cdf <= alpha {
			return c
		}
		logPMF += math.Log(float64(n-c)/float64(c+1)) + lp - lq
	}
	return n
}

// Calibrate builds one calibration case — a seeded database of c's shape
// within calibMaxTrans × calibMaxItems, and pfct placed within ε·union of
// a candidate's exact Pr_FC so its verdict turns on the draws — mines it
// with every union sampled (MaxExactClauses −1), and grades every sampled
// estimate and verdict against world.AllProbs. The Evaluator replays the
// miner's own cascade, so it reports the estimates and verdicts of the
// candidates the mine rejected as well as of those it accepted.
func Calibrate(c Case) (CalibrationReport, error) {
	rng := rand.New(rand.NewSource(c.Seed))
	db := GenDB(c.Shape, rng, calibMaxTrans, calibMaxItems)
	minSup := min(1+rng.Intn(3), db.N())
	tab, err := world.AllProbs(db, minSup)
	if err != nil {
		return CalibrationReport{}, fmt.Errorf("crosscheck: %v: oracle: %w", c, err)
	}
	// Canonical fills in the default ε and δ; pfct is placed once ε is known.
	opts, err := core.Options{MinSup: minSup, PFCT: 0.5, Seed: c.Seed, MaxExactClauses: -1}.Canonical()
	if err != nil {
		return CalibrationReport{}, err
	}
	eps := opts.Epsilon
	opts.PFCT = nearPFCT(tab, rng, eps)
	opts.Tidsets = forcedTidsets
	res, ev, err := core.MineEvaluated(context.Background(), db, opts)
	if err != nil {
		return CalibrationReport{}, fmt.Errorf("crosscheck: %v: mine: %w", c, err)
	}
	mined := keySet(res.Itemsets)
	rep := CalibrationReport{Delta: opts.Delta}
	tab.ForEach(func(x itemset.Itemset, prF, _, prFC float64) {
		if err != nil {
			return
		}
		ri, accepted, e := ev.Evaluate(x, opts.PFCT)
		if e != nil {
			err = fmt.Errorf("crosscheck: %v: evaluate %v: %w", c, x, e)
			return
		}
		if accepted != mined[x.Key()] {
			err = fmt.Errorf("crosscheck: %v: %v accepted=%v on replay, mined=%v", c, x, accepted, mined[x.Key()])
			return
		}
		if ri.Method != core.MethodSampled {
			return
		}
		tol := max(eps*(prF-prFC), tieEps)
		rep.Estimates++
		if math.Abs(ri.Prob-prFC) >= tol {
			rep.Missed++
		}
		if math.Abs(prFC-opts.PFCT) < tol {
			rep.Near++
			return
		}
		rep.Verdicts++
		if accepted != (prFC > opts.PFCT) {
			rep.Wrong++
		}
	})
	return rep, err
}

// nearPFCT places pfct within eps·union of the exact Pr_FC of a random
// itemset whose union is at least calibMinUnion, or draws it from the
// differential palette when there is none.
func nearPFCT(tab *world.ProbTable, rng *rand.Rand, eps float64) float64 {
	type cand struct{ prFC, union float64 }
	var cands []cand
	tab.ForEach(func(_ itemset.Itemset, prF, _, prFC float64) {
		if u := prF - prFC; u >= calibMinUnion {
			cands = append(cands, cand{prFC, u})
		}
	})
	if len(cands) == 0 {
		return []float64{0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95}[rng.Intn(7)]
	}
	x := cands[rng.Intn(len(cands))]
	return min(max(x.prFC+(2*rng.Float64()-1)*eps*x.union, 1e-3), 1-1e-3)
}
