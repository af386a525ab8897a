package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/exact"
	"github.com/probdata/pfcim/internal/gen"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/pfim"
	"github.com/probdata/pfcim/internal/stats"
	"github.com/probdata/pfcim/internal/sweep"
)

// minSupSweep is the paper's Fig. 5/6/12 x-axis: min_sup from 0.2 to 0.6.
func (s *Suite) minSupSweep() []float64 {
	if s.Cfg.Quick {
		return []float64{0.5, 0.3}
	}
	return []float64{0.6, 0.5, 0.4, 0.3, 0.2}
}

// pfctSweep is the Fig. 7 x-axis.
func (s *Suite) pfctSweep() []float64 {
	if s.Cfg.Quick {
		return []float64{0.8, 0.6}
	}
	return []float64{0.5, 0.6, 0.7, 0.8, 0.9}
}

// epsSweep is the Fig. 8/11(a) x-axis: ε from 0.05 to 0.3.
func (s *Suite) epsSweep() []float64 {
	if s.Cfg.Quick {
		return []float64{0.3, 0.1}
	}
	return []float64{0.3, 0.25, 0.2, 0.15, 0.1, 0.05}
}

// deltaSweep is the Fig. 9/11(b) x-axis.
func (s *Suite) deltaSweep() []float64 {
	return s.epsSweep()
}

// ablationSeries are the five algorithms of Fig. 6–9.
var ablationSeries = []string{"MPFCI", "MPFCI-NoCH", "MPFCI-NoSuper", "MPFCI-NoSub", "MPFCI-NoBound"}

// Fig5 compares MPFCI against the Naive baseline (enumerate probabilistic
// frequent itemsets, then estimate each frequent closed probability with
// the sampler) while min_sup varies — Fig. 5(a) Mushroom, 5(b) Quest.
func (s *Suite) Fig5() error {
	for _, ds := range s.Datasets() {
		fmt.Fprintf(s.Cfg.Out, "\nFig 5 (%s): running time vs min_sup, MPFCI vs Naive\n", ds.Name)
		t := newTable(s.Cfg.Out)
		t.row("min_sup", "MPFCI", "Naive", "#PFCI")
		sr := newSeriesRunner(s.Cfg.Budget)
		for _, rel := range s.minSupSweep() {
			opts := s.baseOptions(ds.DB, rel)
			var nRes int
			mpfciCell, err := sr.run("mpfci", func() (time.Duration, error) {
				d, n, _, err := timedRun(ds.DB, opts)
				nRes = n
				return d, err
			})
			if err != nil {
				return err
			}
			naiveCell, err := sr.run("naive", func() (time.Duration, error) {
				start := time.Now()
				_, err := core.NaiveMine(ds.DB, opts)
				return time.Since(start), err
			})
			if err != nil {
				return err
			}
			t.row(f2(rel), mpfciCell, naiveCell, d2(nRes))
		}
		t.flush()
	}
	return nil
}

// Fig6 plots the running time of the five pruning-ablation variants while
// min_sup varies — Fig. 6(a) Mushroom, 6(b) Quest.
func (s *Suite) Fig6() error {
	return s.ablationSweep("Fig 6", "min_sup", s.minSupSweep(), func(ds Dataset, x float64) core.Options {
		return s.baseOptions(ds.DB, x)
	})
}

// Fig7 plots the variants' running time while pfct varies, min_sup fixed
// to the dataset default — Fig. 7(a)/(b).
func (s *Suite) Fig7() error {
	return s.ablationSweep("Fig 7", "pfct", s.pfctSweep(), func(ds Dataset, x float64) core.Options {
		o := s.baseOptions(ds.DB, ds.DefaultMinSup)
		o.PFCT = x
		return o
	})
}

// Fig8 plots the variants' running time while the sampler tolerance ε
// varies — Fig. 8(a)/(b). Only MPFCI-NoBound is expected to react (its
// cost is O(1/ε²) per candidate); the bound-pruning variants rarely sample.
func (s *Suite) Fig8() error {
	return s.ablationSweep("Fig 8", "epsilon", s.epsSweep(), func(ds Dataset, x float64) core.Options {
		o := s.baseOptions(ds.DB, ds.SamplerMinSup)
		o.Epsilon = x
		return o
	})
}

// Fig9 plots the variants' running time while the confidence parameter δ
// varies — Fig. 9(a)/(b). The sampler cost grows only as ln(2/δ), so the
// effect is milder than ε's, as the paper observes.
func (s *Suite) Fig9() error {
	return s.ablationSweep("Fig 9", "delta", s.deltaSweep(), func(ds Dataset, x float64) core.Options {
		o := s.baseOptions(ds.DB, ds.SamplerMinSup)
		o.Delta = x
		return o
	})
}

// ablationSweep renders one Fig. 6–9 panel per dataset. The series run
// through the parameter-sweep engine: each variant's grid is planned into
// groups (sweep.Groups), each group pays one full enumeration and derives
// its remaining points by Evaluator filtering, so the Fig. 7 pfct sweep
// mines each variant once for all thresholds while the min_sup/ε/δ sweeps
// degenerate to one enumeration per point as before. Derived cells carry a
// trailing '*'; the per-series budget applies per group.
func (s *Suite) ablationSweep(fig, xname string, xs []float64, mkOpts func(Dataset, float64) core.Options) error {
	ctx := context.Background()
	for _, ds := range s.Datasets() {
		fmt.Fprintf(s.Cfg.Out, "\n%s (%s): running time vs %s\n", fig, ds.Name, xname)
		t := newTable(s.Cfg.Out)
		t.row(append([]string{xname}, ablationSeries...)...)
		sr := newSeriesRunner(s.Cfg.Budget)
		cols := make(map[string][]string, len(ablationSeries))
		enums, derived := 0, 0
		for _, name := range ablationSeries {
			base := variant(mkOpts(ds, xs[0]), name)
			grid := make([]sweep.Point, len(xs))
			for i, x := range xs {
				o := variant(mkOpts(ds, x), name)
				grid[i] = sweep.Point{MinSup: o.MinSup, PFCT: o.PFCT, Epsilon: o.Epsilon, Delta: o.Delta}
			}
			groups, err := sweep.Groups(grid, base)
			if err != nil {
				return err
			}
			col := make([]string, len(xs))
			for _, members := range groups {
				sub := make([]sweep.Point, len(members))
				for k, i := range members {
					sub[k] = grid[i]
				}
				cell, err := sr.run(name, func() (time.Duration, error) {
					res, err := sweep.Mine(ctx, ds.DB, sub, base)
					if err != nil {
						return 0, err
					}
					enums += res.Stats.FullEnumerations
					derived += res.Stats.DerivedPoints
					var total time.Duration
					for k, i := range members {
						pr := res.Points[k]
						col[i] = formatDuration(pr.Wall)
						if pr.Derived {
							col[i] += "*"
						}
						total += pr.Wall
					}
					return total, nil
				})
				if err != nil {
					return err
				}
				if cell == ">budget" {
					for _, i := range members {
						col[i] = cell
					}
				}
			}
			cols[name] = col
		}
		for i, x := range xs {
			cells := []string{f2(x)}
			for _, name := range ablationSeries {
				cells = append(cells, cols[name][i])
			}
			t.row(cells...)
		}
		t.flush()
		fmt.Fprintf(s.Cfg.Out, "sweep engine: %d full enumerations, %d derived points (* = derived, no re-enumeration)\n",
			enums, derived)
	}
	return nil
}

// Fig10 reports the compression quality: the number of frequent itemsets
// (FI), frequent closed itemsets (FCI) on the exact data, and probabilistic
// frequent itemsets (PFI) and probabilistic frequent closed itemsets (PFCI)
// on the uncertain data, as min_sup decreases. Fig. 10(a) uses Gaussian
// (mean .8, var .1), Fig. 10(b) Gaussian (mean .5, var .5), both over the
// Mushroom-like dataset.
func (s *Suite) Fig10() error {
	grid := []float64{0.3, 0.25, 0.2, 0.15, 0.1}
	if s.Cfg.Quick {
		grid = []float64{0.3, 0.2}
	}
	regimes := []struct {
		label    string
		mean, vr float64
	}{
		{"mean=0.8 var=0.1", 0.8, 0.1},
		{"mean=0.5 var=0.5", 0.5, 0.5},
	}
	d := exact.Dataset(s.Mushroom.Exact)
	for ri, rg := range regimes {
		db := gen.AssignGaussian(s.Mushroom.Exact, rg.mean, rg.vr, s.Cfg.Seed+10)
		fmt.Fprintf(s.Cfg.Out, "\nFig 10(%c) (Mushroom-like, %s): itemset counts vs min_sup\n", 'a'+ri, rg.label)
		t := newTable(s.Cfg.Out)
		t.row("min_sup", "FI", "FCI", "PFI", "PFCI", "FCI/FI", "PFCI/PFI")
		sr := newSeriesRunner(s.Cfg.Budget)
		for _, rel := range grid {
			ms := core.AbsoluteMinSup(len(d), rel)
			var nFI, nFCI, nPFI, nPFCI int
			fiCell, err := sr.run("fi", func() (time.Duration, error) {
				start := time.Now()
				nFI = len(exact.FPGrowth(d, ms))
				return time.Since(start), nil
			})
			if err != nil {
				return err
			}
			if _, err := sr.run("fci", func() (time.Duration, error) {
				start := time.Now()
				nFCI = len(exact.MineClosed(d, ms))
				return time.Since(start), nil
			}); err != nil {
				return err
			}
			if _, err := sr.run("pfi", func() (time.Duration, error) {
				start := time.Now()
				nPFI = len(pfim.Mine(db, pfim.Options{MinSup: ms, PFT: s.Cfg.PFCT}))
				return time.Since(start), nil
			}); err != nil {
				return err
			}
			if _, err := sr.run("pfci", func() (time.Duration, error) {
				opts := s.baseOptions(db, rel)
				start := time.Now()
				res, err := core.Mine(db, opts)
				if err == nil {
					nPFCI = len(res.Itemsets)
				}
				return time.Since(start), err
			}); err != nil {
				return err
			}
			_ = fiCell
			ratio := func(a, b int) string {
				if b == 0 {
					return "-"
				}
				return fmt.Sprintf("%.3f", float64(a)/float64(b))
			}
			t.row(f2(rel), d2(nFI), d2(nFCI), d2(nPFI), d2(nPFCI), ratio(nFCI, nFI), ratio(nPFCI, nPFI))
		}
		t.flush()
	}
	return nil
}

// Fig11 evaluates the approximation quality: precision and recall of the
// sampled result set against the high-accuracy reference (ε = δ = 0.01, the
// paper's stand-in for ground truth), varying ε with δ = 0.1 (Fig. 11a) and
// δ with ε = 0.1 (Fig. 11b), over the default uncertain Mushroom-like
// dataset.
func (s *Suite) Fig11() error {
	ds := s.Mushroom
	rel := ds.SamplerMinSup
	minSup := core.AbsoluteMinSup(ds.DB.N(), rel)

	// Evaluation set: the probabilistic frequent itemsets on which the
	// estimator performs actual Monte-Carlo work (those with at least one
	// non-negligible extension event). On the others, ApproxFCP is exact by
	// construction and contributes nothing to an error measurement.
	pfis := pfim.Mine(ds.DB, pfim.Options{MinSup: minSup, PFT: 0.1})
	type target struct {
		items itemset.Itemset
		exact float64
	}
	var targets []target
	for _, p := range pfis {
		active, err := core.SamplerActiveItemset(ds.DB, p.Items, minSup)
		if err != nil {
			return err
		}
		if !active {
			continue
		}
		exact, err := core.ExactFCP(ds.DB, p.Items, minSup)
		if err != nil {
			// More extension events than exact inclusion–exclusion can
			// handle: skip rather than bias the measurement.
			continue
		}
		targets = append(targets, target{items: p.Items, exact: exact})
		if len(targets) >= 64 {
			break
		}
	}
	if len(targets) == 0 {
		fmt.Fprintf(s.Cfg.Out, "\nFig 11: no sampler-active itemsets at this scale; nothing to measure\n")
		return nil
	}
	// The decision threshold is the median exact Pr_FC of the evaluation
	// set, so roughly half the decisions sit near the boundary where
	// sampling error is observable.
	exacts := make([]float64, len(targets))
	truth := make([]itemset.Itemset, 0, len(targets))
	for i, tg := range targets {
		exacts[i] = tg.exact
	}
	pfct := stats.Summarize(exacts).Median
	if pfct <= 0 {
		pfct = 0.5
	}
	for _, tg := range targets {
		if tg.exact > pfct {
			truth = append(truth, tg.items)
		}
	}

	run := func(eps, delta float64, seed int64) (p, r, mae float64, err error) {
		var found []itemset.Itemset
		sum := 0.0
		for i, tg := range targets {
			est, err := core.EstimateFCP(ds.DB, tg.items, minSup, eps, delta, seed+int64(i))
			if err != nil {
				return 0, 0, 0, err
			}
			d := est - tg.exact
			if d < 0 {
				d = -d
			}
			sum += d
			if est > pfct {
				found = append(found, tg.items)
			}
		}
		p, r = stats.PrecisionRecall(found, truth)
		return p, r, sum / float64(len(targets)), nil
	}

	fmt.Fprintf(s.Cfg.Out, "\nFig 11(a) (Mushroom-like): ApproxFCP quality vs epsilon (delta=0.1, min_sup=%.2f, %d sampler-active itemsets, pfct=median=%.3f)\n",
		rel, len(targets), pfct)
	t := newTable(s.Cfg.Out)
	t.row("epsilon", "precision", "recall", "mean|est-exact|")
	for _, eps := range s.epsSweep() {
		p, r, mae, err := run(eps, 0.1, s.Cfg.Seed)
		if err != nil {
			return err
		}
		t.row(f2(eps), f3(p), f3(r), fmt.Sprintf("%.4f", mae))
	}
	t.flush()

	fmt.Fprintf(s.Cfg.Out, "\nFig 11(b) (Mushroom-like): ApproxFCP quality vs delta (epsilon=0.1)\n")
	t = newTable(s.Cfg.Out)
	t.row("delta", "precision", "recall", "mean|est-exact|")
	for _, delta := range s.deltaSweep() {
		p, r, mae, err := run(0.1, delta, s.Cfg.Seed+1000)
		if err != nil {
			return err
		}
		t.row(f2(delta), f3(p), f3(r), fmt.Sprintf("%.4f", mae))
	}
	t.flush()
	return nil
}

// Fig12 compares the depth-first and breadth-first frameworks while
// min_sup varies — Fig. 12(a)/(b).
func (s *Suite) Fig12() error {
	for _, ds := range s.Datasets() {
		fmt.Fprintf(s.Cfg.Out, "\nFig 12 (%s): running time vs min_sup, DFS vs BFS\n", ds.Name)
		t := newTable(s.Cfg.Out)
		t.row("min_sup", "MPFCI (DFS)", "MPFCI-BFS")
		sr := newSeriesRunner(s.Cfg.Budget)
		for _, rel := range s.minSupSweep() {
			opts := s.baseOptions(ds.DB, rel)
			dfsCell, err := sr.run("dfs", func() (time.Duration, error) {
				d, _, _, err := timedRun(ds.DB, opts)
				return d, err
			})
			if err != nil {
				return err
			}
			bfsOpts := variant(opts, "MPFCI-BFS")
			bfsCell, err := sr.run("bfs", func() (time.Duration, error) {
				d, _, _, err := timedRun(ds.DB, bfsOpts)
				return d, err
			})
			if err != nil {
				return err
			}
			t.row(f2(rel), dfsCell, bfsCell)
		}
		t.flush()
	}
	return nil
}
