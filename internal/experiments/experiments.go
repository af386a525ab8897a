// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V). Each Fig*/Table* function runs the corresponding
// experiment at a configurable scale and prints the same rows/series the
// paper reports; cmd/experiments is the CLI front end and bench_test.go
// exposes each experiment as a testing.B benchmark.
//
// Scale note: the paper's testbed ran minutes-to-an-hour per point on 2012
// hardware at full dataset size. The default configuration here shrinks the
// datasets (keeping their distributional parameters) so the full suite
// completes in minutes; the --scale flags restore larger sizes. Shapes —
// who wins, by what factor, where the crossovers fall — are preserved, as
// EXPERIMENTS.md records.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/gen"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/uncertain"
)

// Config controls dataset scale and mining parameters shared by all
// experiments. Zero values select the paper's defaults at reproduction
// scale.
type Config struct {
	// MushroomScale scales the Mushroom-like dataset (1 ≈ 8124 rows).
	// Default 0.1.
	MushroomScale float64
	// QuestScale scales T20I10D30KP40 (1 = 30000 rows). Default 0.02.
	QuestScale float64
	// PFCT is the probabilistic frequent closed threshold. Default 0.8,
	// the paper's default.
	PFCT float64
	// Epsilon, Delta are the ApproxFCP parameters. Default 0.1 each, the
	// paper's defaults.
	Epsilon, Delta float64
	// Seed drives every generator and sampler.
	Seed int64
	// Budget caps the wall-clock of a single experiment point; once a
	// series exceeds it, its remaining (strictly harder) points are
	// skipped, mirroring the paper's "we did not report running times over
	// 1 hour". Default 60s.
	Budget time.Duration
	// Quick trims every sweep to a few representative points, for smoke
	// tests and fast demos.
	Quick bool
	// Out receives the printed tables. Required.
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.MushroomScale == 0 {
		c.MushroomScale = 0.1
	}
	if c.QuestScale == 0 {
		c.QuestScale = 0.02
	}
	if c.PFCT == 0 {
		c.PFCT = 0.8
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	if c.Delta == 0 {
		c.Delta = 0.1
	}
	if c.Budget == 0 {
		c.Budget = 60 * time.Second
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// Dataset bundles one workload: its name, the exact transactions, and the
// uncertain database under the paper's default Gaussian regime for it
// (Mushroom: mean .5 var .5; T20I10D30KP40: mean .8 var .1).
type Dataset struct {
	Name  string
	Exact []itemset.Itemset
	DB    *uncertain.DB
	// DefaultMinSup is the relative min_sup the paper fixes for this
	// dataset when sweeping other parameters (Mushroom 0.4, Quest 0.3).
	DefaultMinSup float64
	// SamplerMinSup is the relative min_sup used for the ε/δ sweeps
	// (Fig. 8/9): low enough that the Monte-Carlo estimator actually
	// engages at reproduction scale, so the O(1/ε²) cost of MPFCI-NoBound
	// is visible as in the paper.
	SamplerMinSup float64
}

// Suite owns the generated datasets and the shared configuration.
type Suite struct {
	Cfg      Config
	Mushroom Dataset
	Quest    Dataset
}

// NewSuite generates both datasets at the configured scales.
func NewSuite(cfg Config) *Suite {
	cfg = cfg.withDefaults()
	mush := gen.MushroomLike(cfg.MushroomScale, cfg.Seed+1)
	quest := gen.Quest(gen.QuestT20I10D30KP40(cfg.QuestScale, cfg.Seed+2))
	return &Suite{
		Cfg: cfg,
		Mushroom: Dataset{
			Name:          "Mushroom-like",
			Exact:         mush,
			DB:            gen.AssignGaussian(mush, 0.5, 0.5, cfg.Seed+3),
			DefaultMinSup: 0.4,
			SamplerMinSup: 0.2,
		},
		Quest: Dataset{
			Name:          "T20I10D30KP40",
			Exact:         quest,
			DB:            gen.AssignGaussian(quest, 0.8, 0.1, cfg.Seed+4),
			DefaultMinSup: 0.3,
			SamplerMinSup: 0.3,
		},
	}
}

// Datasets returns both workloads in presentation order.
func (s *Suite) Datasets() []Dataset { return []Dataset{s.Mushroom, s.Quest} }

// baseOptions builds the paper-faithful mining options for a dataset at
// the given relative min_sup: the final checking phase uses the ApproxFCP
// sampler (no inclusion–exclusion shortcut), matching the cost model whose
// ablations the figures plot.
func (s *Suite) baseOptions(db *uncertain.DB, relMinSup float64) core.Options {
	return core.Options{
		MinSup:          core.AbsoluteMinSup(db.N(), relMinSup),
		PFCT:            s.Cfg.PFCT,
		Epsilon:         s.Cfg.Epsilon,
		Delta:           s.Cfg.Delta,
		Seed:            s.Cfg.Seed,
		MaxExactClauses: -1,
	}
}

// variant derives one of Table VII's algorithm configurations from a base.
func variant(base core.Options, name string) core.Options {
	o := base
	switch name {
	case "MPFCI-NoCH":
		o.DisableCH = true
	case "MPFCI-NoSuper":
		o.DisableSuperset = true
	case "MPFCI-NoSub":
		o.DisableSubset = true
	case "MPFCI-NoBound":
		o.DisableBounds = true
	case "MPFCI-BFS":
		o.Search = core.BFS
	}
	return o
}

// timedRun mines once and returns the duration and result size.
func timedRun(db *uncertain.DB, opts core.Options) (time.Duration, int, core.Stats, error) {
	start := time.Now()
	res, err := core.Mine(db, opts)
	if err != nil {
		return 0, 0, core.Stats{}, err
	}
	return time.Since(start), len(res.Itemsets), res.Stats, nil
}

// seriesRunner runs one algorithm series across sweep points, skipping the
// remainder once the budget is exceeded (harder points only get harder as
// min_sup decreases / ε decreases).
type seriesRunner struct {
	budget   time.Duration
	exceeded map[string]bool
}

func newSeriesRunner(budget time.Duration) *seriesRunner {
	return &seriesRunner{budget: budget, exceeded: map[string]bool{}}
}

// run executes f unless the series already blew its budget; it returns the
// formatted cell for the table.
func (sr *seriesRunner) run(series string, f func() (time.Duration, error)) (string, error) {
	if sr.exceeded[series] {
		return ">budget", nil
	}
	d, err := f()
	if err != nil {
		return "", err
	}
	if d > sr.budget {
		sr.exceeded[series] = true
	}
	return formatDuration(d), nil
}

func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// table is a small helper for aligned output.
type table struct {
	w *tabwriter.Writer
}

func newTable(out io.Writer) *table {
	return &table{w: tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...string) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		fmt.Fprint(t.w, c)
	}
	fmt.Fprintln(t.w)
}

func (t *table) flush() { t.w.Flush() }

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d2(v int) string     { return fmt.Sprintf("%d", v) }
