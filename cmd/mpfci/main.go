// Command mpfci mines probabilistic frequent closed itemsets from an
// uncertain transaction file.
//
// Usage:
//
//	mpfci -minsup 0.4 -pfct 0.8 [flags] data.txt
//
// The input format is one transaction per line: "item item … : prob";
// a missing ": prob" means the tuple is certain. Results are printed one
// itemset per line with the estimated frequent closed probability.
//
// Flags select the algorithm variant (Table VII of the paper), the sampler
// accuracy, and the baseline comparisons:
//
//	-algo mpfci|bfs|naive    mining algorithm (default mpfci)
//	-no-ch -no-super -no-sub -no-bound   disable individual prunings
//	-frequent                also print probabilistic frequent itemsets
//	-stats                   print pruning statistics
//	-trace out.json          record phase spans: prints a phase/depth summary
//	                         table and writes a Chrome trace-event file
//	-parallel N              mine with N work-stealing workers
//	-shards N                partition the tail arithmetic into N range shards
//	-shard-workers a,b       evaluate shards on live workers over RPC; with
//	                         -trace, their spans merge into the export
//	-cpuprofile f.pb.gz      write a pprof CPU profile of the run
//	-memprofile f.pb.gz      write a pprof heap profile after the run
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	pfcim "github.com/probdata/pfcim"
	"github.com/probdata/pfcim/internal/shard"
)

func main() {
	var (
		minsupRel  = flag.Float64("minsup", 0.4, "relative minimum support in (0,1], fraction of transactions")
		minsupAbs  = flag.Int("minsup-abs", 0, "absolute minimum support (overrides -minsup when > 0)")
		pfct       = flag.Float64("pfct", 0.8, "probabilistic frequent closed threshold")
		eps        = flag.Float64("eps", 0.1, "ApproxFCP relative tolerance error")
		delta      = flag.Float64("delta", 0.1, "ApproxFCP confidence parameter")
		seed       = flag.Int64("seed", 1, "sampler seed")
		algo       = flag.String("algo", "mpfci", "algorithm: mpfci, bfs, naive")
		noCH       = flag.Bool("no-ch", false, "disable Chernoff-Hoeffding pruning")
		noSuper    = flag.Bool("no-super", false, "disable superset pruning")
		noSub      = flag.Bool("no-sub", false, "disable subset pruning")
		noBound    = flag.Bool("no-bound", false, "disable frequent-closed-probability bound pruning")
		frequent   = flag.Bool("frequent", false, "also print probabilistic frequent itemsets (the pre-compression set)")
		maximal    = flag.Bool("maximal", false, "also print the maximal probabilistic frequent itemsets (the border of the PFI set)")
		expSup     = flag.Float64("exp-sup", 0, "when > 0, also print itemsets with expected support ≥ this value (U-Apriori model)")
		parallel   = flag.Int("parallel", 0, "number of work-stealing mining workers (0 = serial)")
		jsonOut    = flag.Bool("json", false, "emit the result as JSON instead of text")
		showStats  = flag.Bool("stats", false, "print pruning statistics")
		traceOut   = flag.String("trace", "", "record phase spans and write a Chrome trace-event JSON file (view in chrome://tracing or Perfetto)")
		shards     = flag.Int("shards", 0, "partition the tail arithmetic into N transaction-range shards (0 = unsharded)")
		shardAddrs = flag.String("shard-workers", "", "comma-separated shard worker addresses; places the dataset and evaluates shards over RPC (default: in-process)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the mining run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (taken after mining) to this file")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mpfci [flags] data.txt")
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	db, err := pfcim.ReadDatabase(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	ms := *minsupAbs
	if ms <= 0 {
		ms = pfcim.AbsoluteMinSup(db.N(), *minsupRel)
	}
	opts := pfcim.Options{
		MinSup:          ms,
		PFCT:            *pfct,
		Epsilon:         *eps,
		Delta:           *delta,
		Seed:            *seed,
		DisableCH:       *noCH,
		DisableSuperset: *noSuper,
		DisableSubset:   *noSub,
		DisableBounds:   *noBound,
		Parallelism:     *parallel,
	}
	if *traceOut != "" {
		opts.Tracer = pfcim.NewTracer()
	}
	opts.Shards = *shards
	if *shardAddrs != "" {
		// Distributed run: place the dataset on the workers and evaluate
		// the per-shard tails over RPC. With -trace, the workers' span
		// batches come back in the responses and land in the summary table
		// and the Chrome export as labeled worker threads (DESIGN §16).
		list := strings.Split(*shardAddrs, ",")
		if opts.Shards < 2 {
			opts.Shards = max(2, len(list))
		}
		client, err := shard.NewClient(list, 0, nil)
		if err != nil {
			fatal(err)
		}
		ctx := context.Background()
		if err := client.Place(ctx, "mpfci", db, opts.Shards); err != nil {
			fatal(err)
		}
		sess, err := client.Kernel(ctx, nil, "mpfci")
		if err != nil {
			fatal(err)
		}
		sess.SetTracer(opts.Tracer)
		opts.ShardKernel = sess
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		// fatal exits through os.Exit, which skips defers, so register the
		// profile flush where fatal can run it too.
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		defer flushProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mpfci:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the post-run live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "mpfci:", err)
			}
		}()
	}

	st := db.Stats()
	fmt.Printf("# %d transactions, %d items, avg length %.2f; min_sup=%d, pfct=%g\n",
		st.NumTransactions, st.NumItems, st.AvgLength, ms, *pfct)

	if *frequent {
		pfis, err := pfcim.MineFrequent(db, pfcim.FrequentOptions{MinSup: ms, PFT: *pfct})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# %d probabilistic frequent itemsets\n", len(pfis))
		for _, p := range pfis {
			fmt.Printf("PFI %s\tPr_F=%.4f\texp_sup=%.2f\n", p.Items, p.FreqProb, p.ExpectedSupport)
		}
	}
	if *maximal {
		maxes, err := pfcim.MaximalFrequent(db, pfcim.FrequentOptions{MinSup: ms, PFT: *pfct})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# %d maximal probabilistic frequent itemsets\n", len(maxes))
		for _, m := range maxes {
			fmt.Printf("MaxPFI %s\n", m)
		}
	}
	if *expSup > 0 {
		esis := pfcim.MineExpectedSupport(db, *expSup)
		fmt.Printf("# %d itemsets with expected support >= %g\n", len(esis), *expSup)
		for _, p := range esis {
			fmt.Printf("ESI %s\texp_sup=%.2f\n", p.Items, p.ExpectedSupport)
		}
	}

	var res *pfcim.Result
	switch *algo {
	case "mpfci":
		res, err = pfcim.Mine(db, opts)
	case "bfs":
		opts.Search = pfcim.BFS
		res, err = pfcim.Mine(db, opts)
	case "naive":
		res, err = pfcim.MineNaive(db, opts)
	default:
		fatal(fmt.Errorf("unknown -algo %q", *algo))
	}
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		if err := writeJSON(os.Stdout, res); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("# %d probabilistic frequent closed itemsets\n", len(res.Itemsets))
		for _, r := range res.Itemsets {
			fmt.Printf("PFCI %s\tPr_FC=%.4f\tPr_F=%.4f\t[%.4f,%.4f]\t%s\n",
				r.Items, r.Prob, r.FreqProb, r.Lower, r.Upper, r.Method)
		}
	}
	if *showStats {
		s := res.Stats
		fmt.Printf("# stats: nodes=%d candidates=%d ch-pruned=%d freq-pruned=%d super-pruned=%d sub-pruned=%d bound-rejected=%d bound-accepted=%d exact-unions=%d sampled=%d samples=%d\n",
			s.NodesVisited, s.CandidateItems, s.CHPruned, s.FreqPruned, s.SupersetPruned,
			s.SubsetPruned, s.BoundRejected, s.BoundAccepted, s.ExactUnions, s.Sampled, s.SamplesDrawn)
	}
	if *traceOut != "" {
		printProfile(res.Profile)
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := opts.Tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("# trace written to %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *traceOut)
	}
}

// printProfile renders the phase profile as a summary table: where the
// run's wall time went, phase by phase and depth by depth.
func printProfile(p *pfcim.Profile) {
	if p == nil {
		return
	}
	total := float64(p.TotalNS)
	fmt.Printf("# profile: total %.3fs\n", total/1e9)
	fmt.Printf("# %-12s %10s %8s %10s\n", "phase", "wall", "share", "count")
	for _, ph := range p.Phases {
		if ph.Count == 0 {
			continue
		}
		fmt.Printf("# %-12s %9.3fs %7.1f%% %10d\n",
			ph.Phase, float64(ph.WallNS)/1e9, 100*float64(ph.WallNS)/total, ph.Count)
	}
	for _, d := range p.Depths {
		fmt.Printf("# depth %-6d %9.3fs %7.1f%% %10d nodes\n",
			d.Depth, float64(d.WallNS)/1e9, 100*float64(d.WallNS)/total, d.Nodes)
	}
	if len(p.Workers) > 1 {
		for _, w := range p.Workers {
			if w.Label != "" {
				fmt.Printf("# remote %-12s %9.3fs busy, %d spans\n", w.Label, float64(w.BusyNS)/1e9, w.Spans)
				continue
			}
			fmt.Printf("# worker %-5d %9.3fs busy, %d spans\n", w.Worker, float64(w.BusyNS)/1e9, w.Spans)
		}
	}
	if p.SpansDropped > 0 {
		fmt.Printf("# %d detailed spans dropped from the ring (aggregates are exact)\n", p.SpansDropped)
	}
}

// jsonItem is the machine-readable form of one result.
type jsonItem struct {
	Items    []int   `json:"items"`
	Prob     float64 `json:"freq_closed_prob"`
	Lower    float64 `json:"lower"`
	Upper    float64 `json:"upper"`
	FreqProb float64 `json:"freq_prob"`
	Method   string  `json:"method"`
}

func writeJSON(w io.Writer, res *pfcim.Result) error {
	out := struct {
		Count    int        `json:"count"`
		Itemsets []jsonItem `json:"itemsets"`
	}{Count: len(res.Itemsets)}
	for _, r := range res.Itemsets {
		items := make([]int, len(r.Items))
		for i, it := range r.Items {
			items[i] = int(it)
		}
		out.Itemsets = append(out.Itemsets, jsonItem{
			Items:    items,
			Prob:     r.Prob,
			Lower:    r.Lower,
			Upper:    r.Upper,
			FreqProb: r.FreqProb,
			Method:   r.Method.String(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// stopProfile flushes the running CPU profile, if any; fatal calls it
// because os.Exit does not run defers.
var stopProfile func()

func flushProfile() {
	if stopProfile != nil {
		stopProfile()
		stopProfile = nil
	}
}

func fatal(err error) {
	flushProfile()
	fmt.Fprintln(os.Stderr, "mpfci:", err)
	os.Exit(1)
}
