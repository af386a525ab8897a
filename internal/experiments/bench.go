package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"github.com/probdata/pfcim/internal/bitset"
	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/gen"
	"github.com/probdata/pfcim/internal/poibin"
	"github.com/probdata/pfcim/internal/stream"
	"github.com/probdata/pfcim/internal/sweep"
	"github.com/probdata/pfcim/internal/uncertain"
)

// BenchPoint is one benchmark measurement: the workload identity, the
// testing.Benchmark timings, and the mining statistics of a single
// representative run (the statistics are deterministic per configuration,
// so one run characterizes all iterations).
type BenchPoint struct {
	Name        string     `json:"name"`
	Dataset     string     `json:"dataset"`
	RelMinSup   float64    `json:"rel_min_sup"`
	PFCT        float64    `json:"pfct"`
	Parallelism int        `json:"parallelism"`
	Shards      int        `json:"shards,omitempty"`
	NsPerOp     int64      `json:"ns_per_op"`
	AllocsPerOp int64      `json:"allocs_per_op"`
	BytesPerOp  int64      `json:"bytes_per_op"`
	Itemsets    int        `json:"itemsets"`
	Stats       core.Stats `json:"stats"`

	// Sweep-benchmark fields: the full-grid measurements comparing the
	// sweep engine against independent per-point mining.
	Points            int     `json:"points,omitempty"`
	FullEnumerations  int     `json:"full_enumerations,omitempty"`
	SpeedupVsPerPoint float64 `json:"speedup_vs_perpoint,omitempty"`

	// Stream-benchmark fields: the sliding-window measurements comparing
	// incremental delta mining against a from-scratch re-mine per round.
	// Stats holds per-round sums for these points; TailEvalRatio is
	// re-mine tails ÷ incremental tails (set on the incremental point).
	Rounds        int     `json:"rounds,omitempty"`
	TailEvalRatio float64 `json:"tail_eval_ratio,omitempty"`
}

// benchConfigs are the Fig. 5 / Fig. 7 operating points the bench runner
// measures: the Fig. 5 running-time comparison at its hardest default point
// on both datasets (serial and at GOMAXPROCS workers), and the Fig. 7 pfct
// sweep endpoints on Mushroom, where bound pruning is weakest (0.5) and
// strongest (0.9).
func (s *Suite) benchConfigs() []BenchPoint {
	// The parallel point must actually exercise the scheduler: on a
	// single-CPU box GOMAXPROCS is 1 and Parallelism 1 degenerates to the
	// serial path (no tasks spawned), so clamp to at least two workers —
	// results are byte-identical at any parallelism, only scheduling
	// differs.
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		procs = 2
	}
	cfgs := []BenchPoint{
		{Name: "fig5-mushroom", Dataset: s.Mushroom.Name, RelMinSup: 0.2, PFCT: s.Cfg.PFCT, Parallelism: 1},
		{Name: "fig5-mushroom-parallel", Dataset: s.Mushroom.Name, RelMinSup: 0.2, PFCT: s.Cfg.PFCT, Parallelism: procs},
		{Name: "fig5-quest", Dataset: s.Quest.Name, RelMinSup: 0.4, PFCT: s.Cfg.PFCT, Parallelism: 1},
		// The Fig. 5 Mushroom point mined with 4-way sharded tail/clause
		// arithmetic (inline fold — byte-identical to the distributed
		// evaluator, DESIGN §14), tracking the sharding overhead on one box.
		{Name: "dist-mushroom", Dataset: s.Mushroom.Name, RelMinSup: 0.2, PFCT: s.Cfg.PFCT, Parallelism: 1, Shards: 4},
		{Name: "fig7-mushroom-pfct0.5", Dataset: s.Mushroom.Name, RelMinSup: 0.4, PFCT: 0.5, Parallelism: 1},
		{Name: "fig7-mushroom-pfct0.9", Dataset: s.Mushroom.Name, RelMinSup: 0.4, PFCT: 0.9, Parallelism: 1},
	}
	return cfgs
}

// RunBench measures every benchmark configuration with testing.Benchmark
// and writes the points as an indented JSON array to w (the BENCH_*.json
// format the repository tracks across optimization work).
func (s *Suite) RunBench(w io.Writer) error {
	var points []BenchPoint
	for _, cfg := range s.benchConfigs() {
		ds := s.Mushroom
		if cfg.Dataset == s.Quest.Name {
			ds = s.Quest
		}
		opts := s.baseOptions(ds.DB, cfg.RelMinSup)
		opts.PFCT = cfg.PFCT
		opts.Parallelism = cfg.Parallelism
		opts.Shards = cfg.Shards

		res, err := core.Mine(ds.DB, opts)
		if err != nil {
			return fmt.Errorf("bench %s: %w", cfg.Name, err)
		}
		cfg.Itemsets = len(res.Itemsets)
		cfg.Stats = res.Stats

		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Mine(ds.DB, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		cfg.NsPerOp = br.NsPerOp()
		cfg.AllocsPerOp = br.AllocsPerOp()
		cfg.BytesPerOp = br.AllocedBytesPerOp()
		points = append(points, cfg)
		fmt.Fprintf(s.Cfg.Out, "bench %-24s %12d ns/op %8d allocs/op  itemsets=%d tails=%d memo-hits=%d\n",
			cfg.Name, cfg.NsPerOp, cfg.AllocsPerOp, cfg.Itemsets, cfg.Stats.TailEvaluations, cfg.Stats.TailMemoHits)
	}
	sweepPoints, err := s.benchFig7Sweep()
	if err != nil {
		return err
	}
	points = append(points, sweepPoints...)
	streamPoints, err := s.benchIncremental()
	if err != nil {
		return err
	}
	points = append(points, streamPoints...)
	if s.Cfg.BenchLarge {
		large, err := s.benchLargeQuest()
		if err != nil {
			return err
		}
		points = append(points, large)
	}
	points = append(points, s.benchKernels()...)

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(points)
}

// benchFig7Sweep measures the full Fig. 7 pfct grid on Mushroom two ways:
// once through the sweep engine (one enumeration at pfct 0.5 plus four
// Evaluator-derived points) and once as five independent core.Mine runs —
// the shared-computation speedup the BENCH_*.json series tracks.
func (s *Suite) benchFig7Sweep() ([]BenchPoint, error) {
	grid := []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	ds := s.Mushroom
	base := s.baseOptions(ds.DB, ds.DefaultMinSup)
	pts := make([]sweep.Point, len(grid))
	for i, p := range grid {
		pts[i] = sweep.Point{MinSup: base.MinSup, PFCT: p, Epsilon: base.Epsilon, Delta: base.Delta}
	}
	ctx := context.Background()

	res, err := sweep.Mine(ctx, ds.DB, pts, base)
	if err != nil {
		return nil, fmt.Errorf("bench fig7-sweep: %w", err)
	}
	nItems := 0
	for _, pr := range res.Points {
		nItems += len(pr.Itemsets)
	}

	perPoint := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range pts {
				if _, err := core.Mine(ds.DB, p.Apply(base)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	engine := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sweep.Mine(ctx, ds.DB, pts, base); err != nil {
				b.Fatal(err)
			}
		}
	})
	speedup := float64(perPoint.NsPerOp()) / float64(engine.NsPerOp())

	out := []BenchPoint{
		{
			Name: "fig7-sweep-perpoint", Dataset: ds.Name,
			RelMinSup: ds.DefaultMinSup, PFCT: grid[0], Parallelism: 1,
			NsPerOp: perPoint.NsPerOp(), AllocsPerOp: perPoint.AllocsPerOp(),
			BytesPerOp: perPoint.AllocedBytesPerOp(),
			Itemsets:   nItems, Points: len(grid), FullEnumerations: len(grid),
		},
		{
			Name: "fig7-sweep-engine", Dataset: ds.Name,
			RelMinSup: ds.DefaultMinSup, PFCT: grid[0], Parallelism: 1,
			NsPerOp: engine.NsPerOp(), AllocsPerOp: engine.AllocsPerOp(),
			BytesPerOp: engine.AllocedBytesPerOp(),
			Itemsets:   nItems, Points: len(grid),
			FullEnumerations:  res.Stats.FullEnumerations,
			SpeedupVsPerPoint: speedup,
		},
	}
	for _, p := range out {
		fmt.Fprintf(s.Cfg.Out, "bench %-24s %12d ns/op %8d allocs/op  points=%d enumerations=%d\n",
			p.Name, p.NsPerOp, p.AllocsPerOp, p.Points, p.FullEnumerations)
	}
	fmt.Fprintf(s.Cfg.Out, "fig7 sweep-engine speedup over per-point mining: %.2fx\n", speedup)
	return out, nil
}

// benchIncremental drives the continuous-monitoring deployment over a
// sliding Mushroom window and mines every reporting round two ways:
// incrementally through the stream delta engine, and from scratch on each
// snapshot. The window holds half the transactions; reports tick faster
// than data arrives (a seeded schedule pushes 0, 1, or 2 transactions per
// tick, 60% quiet — the dashboard-polling regime pfcimd's @latest jobs
// serve), and the re-miner pays a full enumeration on every tick because it
// has no change knowledge, while the delta engine splices quiet rounds
// entirely from the reuse cache and re-evaluates only touched subtrees on
// changed ones. Rounds are byte-identical per DESIGN §15 (the crosscheck
// StreamEquivalence invariant pins it); the BENCH series tracks the work
// avoided — total Poisson-binomial tail evaluations and wall-clock across
// the whole slide, with the re-mine ÷ incremental tail ratio on the
// incremental point.
func (s *Suite) benchIncremental() ([]BenchPoint, error) {
	const relMinSup = 0.3
	ds := s.Mushroom
	trans := ds.DB.Transactions()
	window := len(trans) / 2
	if window < 2 {
		window = 2
	}
	opts := s.baseOptions(ds.DB, relMinSup)
	opts.MinSup = core.AbsoluteMinSup(window, relMinSup)

	// The arrival schedule: pushes per reporting tick after the window
	// fills, seeded so both variants replay the identical feed.
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 7))
	bursts := []int{0, 0, 0, 1, 2}
	var schedule []int
	for left := len(trans) - window; left > 0; {
		k := bursts[rng.Intn(len(bursts))]
		if k > left {
			k = left
		}
		schedule = append(schedule, k)
		left -= k
	}

	type slideStats struct {
		rounds   int
		itemsets int // last round's result size
		stats    core.Stats
	}
	sum := func(acc *core.Stats, st core.Stats) {
		acc.NodesVisited += st.NodesVisited
		acc.TailEvaluations += st.TailEvaluations
		acc.TailMemoHits += st.TailMemoHits
		acc.Evaluated += st.Evaluated
		acc.SubtreesReused += st.SubtreesReused
		acc.SplicedResults += st.SplicedResults
	}

	// slide replays the schedule: fill the window, then one mine per tick.
	slide := func(push func(uncertain.Transaction) error, mine func() (*core.Result, error)) (slideStats, error) {
		var out slideStats
		next := 0
		for ; next < window; next++ {
			if err := push(trans[next]); err != nil {
				return out, err
			}
		}
		for _, k := range schedule {
			for ; k > 0; k-- {
				if err := push(trans[next]); err != nil {
					return out, err
				}
				next++
			}
			res, err := mine()
			if err != nil {
				return out, err
			}
			out.rounds++
			out.itemsets = len(res.Itemsets)
			sum(&out.stats, res.Stats)
		}
		return out, nil
	}
	incremental := func() (slideStats, error) {
		w, err := stream.NewWindow(window)
		if err != nil {
			return slideStats{}, err
		}
		m, err := stream.NewMiner(w, opts)
		if err != nil {
			return slideStats{}, err
		}
		return slide(m.Push, func() (*core.Result, error) {
			res, _, err := m.MineContext(context.Background())
			return res, err
		})
	}
	scratch := func() (slideStats, error) {
		w, err := stream.NewWindow(window)
		if err != nil {
			return slideStats{}, err
		}
		return slide(
			func(t uncertain.Transaction) error { _, _, err := w.Push(t); return err },
			func() (*core.Result, error) {
				snap, err := w.Snapshot()
				if err != nil {
					return nil, err
				}
				return core.Mine(snap, opts)
			})
	}

	inc, err := incremental()
	if err != nil {
		return nil, fmt.Errorf("bench stream-incremental: %w", err)
	}
	rem, err := scratch()
	if err != nil {
		return nil, fmt.Errorf("bench stream-remine: %w", err)
	}
	if inc.itemsets != rem.itemsets || inc.rounds != rem.rounds {
		return nil, fmt.Errorf("bench stream: incremental and re-mine slides disagree (%d/%d itemsets, %d/%d rounds)",
			inc.itemsets, rem.itemsets, inc.rounds, rem.rounds)
	}
	ratio := float64(rem.stats.TailEvaluations) / float64(inc.stats.TailEvaluations)

	bench := func(f func() (slideStats, error)) (testing.BenchmarkResult, error) {
		var ferr error
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f(); err != nil {
					ferr = err
					b.Fatal(err)
				}
			}
		})
		return br, ferr
	}
	brInc, err := bench(incremental)
	if err != nil {
		return nil, fmt.Errorf("bench stream-incremental: %w", err)
	}
	brRem, err := bench(scratch)
	if err != nil {
		return nil, fmt.Errorf("bench stream-remine: %w", err)
	}

	mk := func(name string, br testing.BenchmarkResult, st slideStats) BenchPoint {
		return BenchPoint{
			Name: name, Dataset: ds.Name,
			RelMinSup: relMinSup, PFCT: opts.PFCT, Parallelism: 1,
			NsPerOp: br.NsPerOp(), AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp: br.AllocedBytesPerOp(),
			Itemsets:   st.itemsets, Stats: st.stats, Rounds: st.rounds,
		}
	}
	pInc := mk("stream-mushroom-incremental", brInc, inc)
	pInc.TailEvalRatio = ratio
	pRem := mk("stream-mushroom-remine", brRem, rem)
	out := []BenchPoint{pRem, pInc}
	for _, p := range out {
		fmt.Fprintf(s.Cfg.Out, "bench %-24s %12d ns/op %8d allocs/op  rounds=%d tails=%d reused=%d\n",
			p.Name, p.NsPerOp, p.AllocsPerOp, p.Rounds, p.Stats.TailEvaluations, p.Stats.SubtreesReused)
	}
	fmt.Fprintf(s.Cfg.Out, "stream incremental tail-evaluation saving over re-mine: %.2fx across %d rounds\n",
		ratio, inc.rounds)
	return out, nil
}

// benchLargeQuest generates the million-transaction sparse Quest dataset
// (T10I4D1MP2K under the paper's mean-.8/var-.1 Gaussian regime) and
// measures one full mining run at relative min_sup 0.01. The workload is
// the antithesis of Mushroom: per-item tidsets are ~0.5% dense (the auto
// representation compacts them), and frequent-item support distributions
// are long enough that the divide-and-conquer tail kernel engages.
func (s *Suite) benchLargeQuest() (BenchPoint, error) {
	data := gen.Quest(gen.QuestT10I4D1MP2K(1, s.Cfg.Seed+5))
	db := gen.AssignGaussian(data, 0.8, 0.1, s.Cfg.Seed+6)
	cfg := BenchPoint{
		Name: "quest-1m", Dataset: "T10I4D1MP2K",
		RelMinSup: 0.01, PFCT: s.Cfg.PFCT, Parallelism: 1,
	}
	opts := s.baseOptions(db, cfg.RelMinSup)
	opts.PFCT = cfg.PFCT
	opts.Parallelism = cfg.Parallelism

	res, err := core.Mine(db, opts)
	if err != nil {
		return BenchPoint{}, fmt.Errorf("bench %s: %w", cfg.Name, err)
	}
	cfg.Itemsets = len(res.Itemsets)
	cfg.Stats = res.Stats

	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Mine(db, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	cfg.NsPerOp = br.NsPerOp()
	cfg.AllocsPerOp = br.AllocsPerOp()
	cfg.BytesPerOp = br.AllocedBytesPerOp()
	fmt.Fprintf(s.Cfg.Out, "bench %-24s %12d ns/op %8d allocs/op  itemsets=%d tails=%d memo-hits=%d\n",
		cfg.Name, cfg.NsPerOp, cfg.AllocsPerOp, cfg.Itemsets, cfg.Stats.TailEvaluations, cfg.Stats.TailMemoHits)
	return cfg, nil
}

// benchKernels measures the overhauled kernels in isolation, outside any
// mining run: the dynamic-programming vs divide-and-conquer
// Poisson-binomial tail on an 8192-probability vector, the batched
// 16-sibling column-sweep intersection vs sixteen independent AndInto
// calls, and AND+popcount over dense vs compressed representations of the
// same ~0.4%-dense 2²⁰-bit sets. Steady-state allocations should be zero
// for all six (the alloc-guard test asserts it for the library paths).
func (s *Suite) benchKernels() []BenchPoint {
	rng := rand.New(rand.NewSource(s.Cfg.Seed))
	const n = 8192
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = rng.Float64()
	}
	k := n / 2
	var sc poibin.Scratch
	sc.TailKernel(probs, k, poibin.KernelDP) // warm the scratch arena
	sc.TailKernel(probs, k, poibin.KernelConv)

	bench := func(f func()) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f()
			}
		})
	}
	mk := func(name string, r testing.BenchmarkResult) BenchPoint {
		return BenchPoint{
			Name: name, Dataset: "synthetic",
			NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(),
		}
	}

	tailDP := bench(func() { sc.TailKernel(probs, k, poibin.KernelDP) })
	tailConv := bench(func() { sc.TailKernel(probs, k, poibin.KernelConv) })

	parent := bitset.New(n)
	srcs := make([]*bitset.Bitset, 16)
	dsts := make([]*bitset.Bitset, 16)
	counts := make([]int, 16)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			parent.Set(i)
		}
	}
	for j := range srcs {
		srcs[j] = bitset.New(n)
		dsts[j] = bitset.New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				srcs[j].Set(i)
			}
		}
	}
	batch := bench(func() { bitset.AndBatch(dsts, counts, parent, srcs) })
	serial := bench(func() {
		for j := range srcs {
			counts[j] = bitset.AndInto(dsts[j], parent, srcs[j])
		}
	})

	const big = 1 << 20
	mkset := func() *bitset.Bitset {
		b := bitset.New(big)
		for i := 0; i < big; i++ {
			if rng.Float64() < 0.004 {
				b.Set(i)
			}
		}
		return b
	}
	dx, dy := mkset(), mkset()
	sx, sy := dx.Compacted(), dy.Compacted()
	var sink int
	andDense := bench(func() { sink = bitset.AndCount(dx, dy) })
	andCompressed := bench(func() { sink = bitset.AndCount(sx, sy) })
	_ = sink

	out := []BenchPoint{
		mk("kernel-tail-dp", tailDP),
		mk("kernel-tail-conv", tailConv),
		mk("kernel-and-batch16", batch),
		mk("kernel-and-serial16", serial),
		mk("kernel-and-dense", andDense),
		mk("kernel-and-compressed", andCompressed),
	}
	for _, p := range out {
		fmt.Fprintf(s.Cfg.Out, "bench %-24s %12d ns/op %8d allocs/op\n", p.Name, p.NsPerOp, p.AllocsPerOp)
	}
	return out
}
