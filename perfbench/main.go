// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the pfcim library and the pfcimd daemon (both in
// this process), checks every output for correctness, and prints each
// metric with its unit. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics; a fuller report with
// host provenance is written under --out-dir.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload mine --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh compare --base <dir> --change <dir>
//
// # Workloads
//
// Every workload takes its seed as an argument, and the program under test
// only sees the generated inputs. The datasets are the experiments' default
// ones (generator seed 0): at these scales a generator seed moves mining
// cost by more than 10×, so the seed varies what leaves the problem's size
// alone — row order and sampler seeds on mine, the requests on
// serve-cached.
//
// mine — closed loop, one caller, Parallelism 1, no daemon. Data:
// Mushroom-like at scale 0.1 (812 rows, probabilities mean .5 / var .5) and
// T20I10D30KP40 at scale 0.02 (600 rows, mean .8 / var .1), rows shuffled
// by the seed. Options follow the paper (pfct 0.8, ε = δ = 0.1,
// MaxExactClauses −1, sampler seed = run seed). Each iteration (one op)
// runs five calls in order, each its own class: dense (core.Mine, Mushroom,
// min_sup 0.2), sparse (core.Mine, Quest, 0.4), sweep (sweep.Mine over pfct
// 0.5…0.9, Mushroom, 0.2), sharded (dense with Shards 4, in-process) and rpc
// (Mushroom, 0.3, Shards 2, with a shard.Client session over two in-process
// shard workers on loopback). Why: all the time goes to core, poibin,
// bitset, dnf, sweep and shard and none to service or store; dense and
// sparse data differ in tidset density and tail length, and the two shard
// classes exercise the shard paths that dense bypasses.
//
// serve-cached — the daemon with no store and its deployed defaults, after
// a 2 s untimed warm-up, driven for half the run by an open loop at
// cachedRate (2000) requests/s from nproc sender goroutines, then for the
// other half by a closed loop with nproc clients. Data: Mushroom-like at
// scale 0.05 (406 rows), the same for every seed; the seed draws the
// requests. Traffic (one op is one request) is read-mostly: 21% resubmits
// from a warmed key set of 100, smaller than the 128-entry result cache
// (every one a cache hit), 63% GET /v1/jobs/{id}, 5% GET /v1/datasets/{id}
// and 11% JSON /metrics scrapes (see cachedOp for where the weights come
// from). Why: the miner does almost nothing here, so routing, middleware,
// JSON encoding, registry lookup, the cache and metrics rendering
// dominate, and a miner speedup should change nothing.
//
// There is no write-mostly serve workload (fresh submits, appends with
// @latest watched jobs, sweeps, store read-through): with a store its
// request median followed the host's fsync latency, and ten runs of the
// same code spread by about a third around their median. The stream and
// store layers are measured by the traced run's probes instead.
//
// # Metrics
//
// A run with --trace 0 measures the end-to-end metrics; the untraced numbers
// are the only ones gated: setup_s (median of setupReps set-ups) and
// op_p50_ms (mine: one iteration of the five calls; serve: one request,
// timed from its due time). On mine, op_p50_ms is the sum of the five
// calls, so a slowdown of one class moves it by that class's share only
// (dense is about a sixth); the per-class rows below, which compare mode
// prints, show such a change. capacity_ops_s (mine: calls per second at the
// median iteration; serve: median completions per 250 ms window of the
// closed loop) is printed but not gated: over ten runs on the reference
// host it spread by 15–20% of its median. The table also prints each
// class's latency under its own name (mine_dense_ms, req_p99_ms,
// job_p50_ms, req.get_job_ms, …). A run with --trace 1 repeats the
// workload with spans recorded around every call into a layer, runs the
// per-layer probes and the layer ladder, and reports the per-layer metrics
// (see layers.go). The spans are kept in memory and written out at the end
// of the run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// config is one run's settings.
type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	outDir    string
	setupReps int
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(cfg config, rep *report) error{
	"mine":         runMine,
	"serve-cached": runServe,
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{setupReps: setupReps}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: mine or serve-cached")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed all inputs derive from")
	fs.IntVar(&cfg.seconds, "seconds", 40, "measured length of the run, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer mode")
	fs.StringVar(&cfg.outDir, "out-dir", filepath.Join(".bench_build", "perfbench"), "directory for reports, spans and temporary stores")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("--seconds must be ≥ 1")
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// run parses the command line, executes one benchmark run and returns the
// process exit code.
func run(args []string, stdout io.Writer) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	return execute(cfg, stdout)
}

// execute runs the configured workload, prints the metric table and the
// result line, and returns the process exit code.
func execute(cfg config, stdout io.Writer) int {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep := newReport(cfg)
	start := time.Now()
	if err := workloads[cfg.workload](cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rep.Provenance.WallSeconds = time.Since(start).Seconds()
	rep.finish()
	rep.printTable(stdout)
	if err := rep.write(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed or were incorrect\n", rep.Failed, rep.Attempted)
		return 1
	}
	return 0
}

// Gated metric names: the metrics BENCHMARK.json lists. Every workload
// reports all of them (see the package documentation for what an op is on
// each workload).
var (
	endToEnd = []string{"setup_s", "op_p50_ms"}
	perLayer = []string{
		"fail_ratio",
		"core.phase.candidates_ms", "core.phase.expand_ms", "core.phase.bound_check_ms",
		"core.phase.exact_union_ms", "core.phase.sampling_ms", "core.phase_coverage",
		"core.nodes_visited", "core.bound_decided_ratio", "core.tail_memo_hit_ratio",
		"core.allocs_per_op", "core.bytes_per_op",
		"poibin.tail_dp_us", "poibin.tail_conv_us",
		"bitset.and_batch16_ns", "bitset.and_dense_ns", "bitset.and_compressed_ns",
		"dnf.clauses_per_candidate", "dnf.samples_drawn",
		"sweep.full_enumerations", "sweep.reestimated_ratio", "sweep.speedup_vs_perpoint",
		"shard.inline_overhead", "shard.rpc_calls_per_mine", "shard.rpc_p50_ms", "shard.retries", "shard.worker_busy_ms",
		"stream.round_ms", "stream.unchanged_ratio", "stream.subtrees_reused_per_round",
		"service.cache_hit_ratio", "service.queue_wait_p50_ms", "service.queue_wait_p99_ms",
		"service.mine_wall_p50_ms", "service.http_overhead_ms", "service.response_bytes_p50",
		"service.shed_ratio", "service.heap_inuse_mb_end", "service.goroutines_end",
		"store.put_result_ms", "store.get_result_ms",
		"store.results_persisted", "store.datasets_persisted", "store.lineages_persisted", "store.restored_results",
		"store.bytes_per_user_byte", "store.files_end",
		"obs.overhead_ratio", "gen.late_p99_ms",
		"ladder.core_ms", "ladder.facade_ms", "ladder.service_ms", "ladder.http_ms", "ladder.http_store_ms", "ladder.rpc_ms",
	}
)

// metricValue is one metric as the result line prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is one named metric of the report: its value plus, for timings,
// the sample count and the highest percentile with at least ten samples
// beyond it.
type detail struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
	Tail  string  `json:"tail,omitempty"` // e.g. "p99"
	TailV float64 `json:"tail_value,omitempty"`
}

// report accumulates one run's outcome.
type report struct {
	Provenance provenance             `json:"provenance"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Mismatches []string               `json:"mismatches,omitempty"`
	Metrics    map[string]detail      `json:"metrics"`
	Gated      map[string]metricValue `json:"gated"`
	Spans      []span                 `json:"-"`
}

func newReport(cfg config) *report {
	return &report{
		Provenance: hostProvenance(cfg),
		Metrics:    make(map[string]detail),
	}
}

// set records a scalar metric.
func (r *report) set(name, unit string, v float64) {
	r.Metrics[name] = detail{Name: name, Unit: unit, Value: v}
}

// setDist records a timing distribution by its median, with the sample
// count and the highest percentile that has at least ten samples beyond it.
func (r *report) setDist(name, unit string, s samples) {
	d := detail{Name: name, Unit: unit, Value: s.quantile(0.5), N: len(s)}
	if p, ok := s.tailPercentile(); ok {
		d.Tail = fmt.Sprintf("p%g", p*100)
		d.TailV = s.quantile(p)
	}
	r.Metrics[name] = d
}

// setQuantile records one quantile of a distribution as the metric value.
func (r *report) setQuantile(name, unit string, s samples, q float64) {
	r.Metrics[name] = detail{Name: name, Unit: unit, Value: s.quantile(q), N: len(s)}
}

// attempt counts one operation and, when failed, one failure.
func (r *report) attempt(failed bool) {
	r.Attempted++
	if failed {
		r.Failed++
	}
}

// check counts one checked operation, a mismatch unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		r.attempt(false)
		return
	}
	r.mismatch(format, args...)
}

// mismatch records a correctness failure.
func (r *report) mismatch(format string, args ...any) {
	r.Attempted++
	r.Failed++
	msg := fmt.Sprintf(format, args...)
	if len(r.Mismatches) < 20 {
		r.Mismatches = append(r.Mismatches, msg)
	}
	fmt.Fprintln(os.Stderr, "perfbench: mismatch:", msg)
}

// finish derives fail_ratio and the gated set, and decides correctness.
func (r *report) finish() {
	if r.Attempted == 0 {
		r.mismatch("no operation was attempted")
	}
	names := endToEnd
	if r.Provenance.Trace {
		names = perLayer
	}
	var missing []string
	for _, n := range names {
		if _, ok := r.Metrics[n]; !ok && n != "fail_ratio" {
			missing = append(missing, n)
		}
	}
	if len(missing) > 0 {
		r.mismatch("metrics not measured: %s", strings.Join(missing, ", "))
	}
	r.set("fail_ratio", "ratio", float64(r.Failed)/float64(r.Attempted))
	r.Gated = make(map[string]metricValue, len(names))
	for _, n := range names {
		d := r.Metrics[n]
		r.Gated[n] = metricValue{Value: d.Value, Unit: d.Unit}
	}
	r.Correct = r.Failed == 0
}

// summary is the last line of standard output.
func (r *report) summary() any {
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Gated}
}

// printTable prints every metric of the run, one per line, with its unit.
func (r *report) printTable(w io.Writer) {
	p := r.Provenance
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%t host=%s/%s cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		p.Workload, p.Seed, p.Seconds, p.Trace, p.GOOS, p.GOARCH, p.CPUModel, p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.Commit)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := r.Metrics[n]
		line := fmt.Sprintf("  %-34s %14.6g %-6s", n, d.Value, d.Unit)
		if d.N > 0 {
			line += fmt.Sprintf(" n=%d", d.N)
		}
		if d.Tail != "" {
			line += fmt.Sprintf(" %s=%.6g", d.Tail, d.TailV)
		}
		fmt.Fprintln(w, line)
	}
	for _, m := range r.Mismatches {
		fmt.Fprintln(w, "  MISMATCH:", m)
	}
}

// write stores the report (and, for traced runs, the spans) under outDir.
func (r *report) write(cfg config) error {
	base := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, btoi(cfg.trace))
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, base+".json"), blob, 0o644); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	blob, err = json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{r.Provenance, r.Spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "spans-"+base+".json"), blob, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// nproc is the concurrency bound of every load generator in the benchmark.
func nproc() int { return runtime.NumCPU() }

var errTimeout = errors.New("timed out")
