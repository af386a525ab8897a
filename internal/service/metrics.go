package service

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/obs"
	"github.com/probdata/pfcim/internal/shard"
)

// metrics is the daemon's counter set, served by /metrics. The counters are
// expvar vars created per Server rather than published to the global expvar
// registry, so multiple servers (tests, embedding) never collide on
// registration. The handler content-negotiates: Prometheus text exposition
// for scrapers that ask for text/plain, expvar-shaped JSON otherwise.
type metrics struct {
	JobsQueued   expvar.Int // jobs accepted into the queue
	JobsRunning  expvar.Int // jobs currently executing (gauge)
	JobsDone     expvar.Int // jobs finished successfully (cache hits included)
	JobsFailed   expvar.Int // jobs finished with an error, timeout, or panic
	JobsCanceled expvar.Int // jobs canceled by DELETE
	SlowJobs     expvar.Int // jobs that exceeded the slow-job threshold

	CacheHits   expvar.Int // submissions served from the result cache
	CacheMisses expvar.Int // submissions that had to mine

	SweepsDone          expvar.Int // sweep jobs finished successfully
	SweepPointsCached   expvar.Int // sweep grid points answered from the cache at submit
	SweepPointsComputed expvar.Int // sweep grid points the engine had to produce
	SweepEnumerations   expvar.Int // full enumerations sweep jobs actually ran

	DatasetsRegistered expvar.Int // distinct datasets ever registered
	DatasetsAppended   expvar.Int // dataset versions created by append
	WatchedMines       expvar.Int // @latest jobs mined through the incremental engine

	// Distributed-path counters, fed by the shard.Client through the
	// Observer interface the metrics struct implements.
	ShardRetries         expvar.Int // shard RPC attempts that were retried after a failure
	ShardTailEvaluations expvar.Int // worker-side per-shard tail computations
	ShardTailMemoHits    expvar.Int // worker-side per-shard tail memo hits
	ShardPlacements      expvar.Int // dataset shard placements completed
	// ShardTailsWasted is derived when each distributed job completes,
	// not fed through the Observer: tails its session fetched ahead in a
	// batch minus the tails the miner evaluated.
	ShardTailsWasted expvar.Int

	// Durable-store counters (all zero without -store-dir).
	StoreDatasetsPersisted expvar.Int // dataset versions written through to the store
	StoreLineagesPersisted expvar.Int // lineage records written through to the store
	StoreResultsPersisted  expvar.Int // finished results snapshotted to the store
	StoreRestoredDatasets  expvar.Int // dataset versions restored at startup
	StoreRestoredResults   expvar.Int // results served from disk by cache read-through
	StoreQuarantined       expvar.Int // segments quarantined by recovery at startup
	StoreErrors            expvar.Int // store reads/writes that failed or failed validation

	// Admission-control counters: submissions rejected before touching the
	// queue or the pool.
	JobsShedQueueFull expvar.Int // submissions shed because the queue was full
	JobsShedQuota     expvar.Int // submissions shed by a tenant's token quota

	MineWallMillis expvar.Int // cumulative wall time spent mining

	// Cumulative core.Stats counters across every finished job — the
	// daemon-level view of Fig. 6–9's per-run statistics. Every field of
	// core.Stats is mirrored here; keep the two lists in lockstep.
	NodesVisited    expvar.Int
	CandidateItems  expvar.Int
	CHPruned        expvar.Int
	FreqPruned      expvar.Int
	SupersetPruned  expvar.Int
	SubsetPruned    expvar.Int
	BoundRejected   expvar.Int
	BoundAccepted   expvar.Int
	ExactUnions     expvar.Int
	Sampled         expvar.Int
	SamplesDrawn    expvar.Int
	Evaluated       expvar.Int
	TailEvaluations expvar.Int
	TailMemoHits    expvar.Int
	ClauseEvaluated expvar.Int
	SubtreesReused  expvar.Int
	SplicedResults  expvar.Int
	TasksSpawned    expvar.Int
	TasksStolen     expvar.Int

	// Latency histograms (Prometheus exposition only; the JSON view stays
	// flat counters for backward compatibility).
	jobWall    *obs.Histogram // job wall time, submission kinds pooled
	queueWait  *obs.Histogram // queued → started
	cacheGet   *obs.Histogram // result-cache lookup latency at submit
	sweepCache *obs.Histogram // per-point cache probes at sweep submit
	shardRPC   *obs.Histogram // per-shard RPC attempt latency

	// Per-worker health state, rendered as labeled worker_up and
	// last-probe-age gauges. Removing a worker from the ring deletes its
	// entry so the series disappear instead of freezing at a stale 1.
	workerMu sync.Mutex
	workerUp map[string]workerHealth

	// Per-watched-job round telemetry, labeled by (lineage, options).
	watchMu sync.Mutex
	watch   map[string]*watchMetrics
}

// workerHealth is one shard worker's last probe verdict and when it landed.
type workerHealth struct {
	up      bool
	probeAt time.Time
}

func newMetrics() *metrics {
	return &metrics{
		jobWall:    obs.NewHistogram(obs.JobBuckets),
		queueWait:  obs.NewHistogram(obs.JobBuckets),
		cacheGet:   obs.NewHistogram(obs.LookupBuckets),
		sweepCache: obs.NewHistogram(obs.LookupBuckets),
		shardRPC:   obs.NewHistogram(obs.RPCBuckets),
		workerUp:   map[string]workerHealth{},
		watch:      map[string]*watchMetrics{},
	}
}

// The metrics struct is the shard client's Observer: operational signals
// from the distributed path land directly in the daemon's counter set.
var _ shard.Observer = (*metrics)(nil)

func (m *metrics) ShardRPC(d time.Duration) { m.shardRPC.Observe(d) }
func (m *metrics) ShardRetry()              { m.ShardRetries.Add(1) }

func (m *metrics) WorkerUp(addr string, up bool) {
	m.workerMu.Lock()
	m.workerUp[addr] = workerHealth{up: up, probeAt: time.Now()}
	m.workerMu.Unlock()
}

// WorkerRemoved retires the address's health series: a removed worker must
// drop out of the exposition rather than scrape forever as a stale 1.
func (m *metrics) WorkerRemoved(addr string) {
	m.workerMu.Lock()
	delete(m.workerUp, addr)
	m.workerMu.Unlock()
}

func (m *metrics) ShardEvalStats(evals, memoHits int64) {
	m.ShardTailEvaluations.Add(evals)
	m.ShardTailMemoHits.Add(memoHits)
}

func (m *metrics) PlacementDone(string, int) { m.ShardPlacements.Add(1) }

// workerUpSnapshot returns the health states in address order.
func (m *metrics) workerUpSnapshot() (addrs []string, up map[string]workerHealth) {
	m.workerMu.Lock()
	defer m.workerMu.Unlock()
	up = make(map[string]workerHealth, len(m.workerUp))
	for a, v := range m.workerUp {
		addrs = append(addrs, a)
		up[a] = v
	}
	sort.Strings(addrs)
	return addrs, up
}

// watchMetrics is one watched (lineage, options) stream's round telemetry.
// Counter fields are guarded by the owning metrics' watchMu; the histograms
// are internally atomic.
type watchMetrics struct {
	rounds    int64
	added     int64
	removed   int64
	changed   int64
	unchanged int64
	roundWall *obs.Histogram // incremental round wall time
	reuse     *obs.Histogram // per-round splice reuse ratio in [0, 1]
}

// watchRoundObs is one incremental round's telemetry as reported by a
// watched job after MineContext returns.
type watchRoundObs struct {
	Wall                               time.Duration
	Added, Removed, Changed, Unchanged int64
	ReuseRatio                         float64 // spliced results / round results; 0 for an empty round
}

// observeWatchRound folds one round into the labeled per-stream series.
func (m *metrics) observeWatchRound(label string, r watchRoundObs) {
	m.watchMu.Lock()
	w := m.watch[label]
	if w == nil {
		w = &watchMetrics{
			roundWall: obs.NewHistogram(obs.JobBuckets),
			reuse:     obs.NewHistogram(obs.RatioBuckets),
		}
		m.watch[label] = w
	}
	w.rounds++
	w.added += r.Added
	w.removed += r.Removed
	w.changed += r.Changed
	w.unchanged += r.Unchanged
	m.watchMu.Unlock()
	w.roundWall.Observe(r.Wall)
	w.reuse.ObserveValue(r.ReuseRatio)
}

// watchSnapshot returns the watch labels in order plus their series.
func (m *metrics) watchSnapshot() (labels []string, ws map[string]watchMetrics) {
	m.watchMu.Lock()
	defer m.watchMu.Unlock()
	ws = make(map[string]watchMetrics, len(m.watch))
	for l, w := range m.watch {
		labels = append(labels, l)
		ws[l] = *w
	}
	sort.Strings(labels)
	return labels, ws
}

// addStats accumulates one finished job's mining statistics — the full
// core.Stats counter set, so /metrics exposes every pruning, bounding, and
// scheduling counter the miner tracks.
func (m *metrics) addStats(s core.Stats) {
	m.NodesVisited.Add(int64(s.NodesVisited))
	m.CandidateItems.Add(int64(s.CandidateItems))
	m.CHPruned.Add(int64(s.CHPruned))
	m.FreqPruned.Add(int64(s.FreqPruned))
	m.SupersetPruned.Add(int64(s.SupersetPruned))
	m.SubsetPruned.Add(int64(s.SubsetPruned))
	m.BoundRejected.Add(int64(s.BoundRejected))
	m.BoundAccepted.Add(int64(s.BoundAccepted))
	m.ExactUnions.Add(int64(s.ExactUnions))
	m.Sampled.Add(int64(s.Sampled))
	m.SamplesDrawn.Add(int64(s.SamplesDrawn))
	m.Evaluated.Add(int64(s.Evaluated))
	m.TailEvaluations.Add(int64(s.TailEvaluations))
	m.TailMemoHits.Add(int64(s.TailMemoHits))
	m.ClauseEvaluated.Add(int64(s.ClauseEvaluated))
	m.SubtreesReused.Add(int64(s.SubtreesReused))
	m.SplicedResults.Add(int64(s.SplicedResults))
	m.TasksSpawned.Add(int64(s.TasksSpawned))
	m.TasksStolen.Add(int64(s.TasksStolen))
}

// metricVar is one counter's serving metadata: the flat JSON name, whether
// it is a gauge (everything else is a monotonic Prometheus counter), and
// the HELP line.
type metricVar struct {
	Name  string
	Var   *expvar.Int
	Gauge bool
	Help  string
}

// vars lists every counter with its exported name, in serving order.
func (m *metrics) vars() []metricVar {
	return []metricVar{
		{"jobs_queued", &m.JobsQueued, false, "Jobs accepted into the queue."},
		{"jobs_running", &m.JobsRunning, true, "Jobs currently executing."},
		{"jobs_done", &m.JobsDone, false, "Jobs finished successfully, cache hits included."},
		{"jobs_failed", &m.JobsFailed, false, "Jobs finished with an error, timeout, or panic."},
		{"jobs_canceled", &m.JobsCanceled, false, "Jobs canceled by DELETE."},
		{"slow_jobs", &m.SlowJobs, false, "Jobs whose wall time exceeded the slow-job threshold."},
		{"cache_hits", &m.CacheHits, false, "Submissions served from the result cache."},
		{"cache_misses", &m.CacheMisses, false, "Submissions that had to mine."},
		{"sweeps_done", &m.SweepsDone, false, "Sweep jobs finished successfully."},
		{"sweep_points_cached", &m.SweepPointsCached, false, "Sweep grid points answered from the cache at submit."},
		{"sweep_points_computed", &m.SweepPointsComputed, false, "Sweep grid points the engine had to produce."},
		{"sweep_enumerations", &m.SweepEnumerations, false, "Full enumerations sweep jobs actually ran."},
		{"datasets_registered", &m.DatasetsRegistered, false, "Distinct datasets ever registered."},
		{"datasets_appended", &m.DatasetsAppended, false, "Dataset versions created by append."},
		{"watched_mines", &m.WatchedMines, false, "@latest jobs mined through the incremental engine."},
		{"shard_retries", &m.ShardRetries, false, "Shard RPC attempts retried after a failure."},
		{"shard_tail_evaluations", &m.ShardTailEvaluations, false, "Worker-side per-shard tail computations."},
		{"shard_tail_memo_hits", &m.ShardTailMemoHits, false, "Worker-side per-shard tail memo hits."},
		{"shard_placements", &m.ShardPlacements, false, "Dataset shard placements completed."},
		{"shard_tails_wasted", &m.ShardTailsWasted, false, "Tails fetched ahead in a shard batch that the miner never consumed."},
		{"store_datasets_persisted", &m.StoreDatasetsPersisted, false, "Dataset versions written through to the durable store."},
		{"store_lineages_persisted", &m.StoreLineagesPersisted, false, "Lineage records written through to the durable store."},
		{"store_results_persisted", &m.StoreResultsPersisted, false, "Finished results snapshotted to the durable store."},
		{"store_restored_datasets", &m.StoreRestoredDatasets, false, "Dataset versions restored from the store at startup."},
		{"store_restored_results", &m.StoreRestoredResults, false, "Results served from disk by cache read-through."},
		{"store_quarantined", &m.StoreQuarantined, false, "Store segments quarantined by recovery at startup."},
		{"store_errors", &m.StoreErrors, false, "Store operations that failed or failed validation."},
		{"jobs_shed_queue_full", &m.JobsShedQueueFull, false, "Submissions shed because the job queue was full."},
		{"jobs_shed_quota", &m.JobsShedQuota, false, "Submissions shed by a tenant's token quota."},
		{"mine_wall_ms", &m.MineWallMillis, false, "Cumulative wall time spent mining, in milliseconds."},
		{"nodes_visited", &m.NodesVisited, false, "Enumeration-tree nodes visited."},
		{"candidate_items", &m.CandidateItems, false, "Single items that survived the candidate phase."},
		{"ch_pruned", &m.CHPruned, false, "Subtrees pruned by the Chernoff-Hoeffding bound (Lemma 4.1)."},
		{"freq_pruned", &m.FreqPruned, false, "Subtrees pruned as probabilistically infrequent."},
		{"superset_pruned", &m.SupersetPruned, false, "Nodes pruned by the superset condition (Lemma 4.2)."},
		{"subset_pruned", &m.SubsetPruned, false, "Subtrees pruned by the subset condition (Lemma 4.3)."},
		{"bound_rejected", &m.BoundRejected, false, "Candidates rejected by the Pr_FC bounds (Lemma 4.4)."},
		{"bound_accepted", &m.BoundAccepted, false, "Candidates accepted by the Pr_FC bounds (Lemma 4.4)."},
		{"exact_unions", &m.ExactUnions, false, "Extension-event unions resolved by exact inclusion-exclusion."},
		{"sampled", &m.Sampled, false, "Extension-event unions resolved by the Karp-Luby sampler."},
		{"samples_drawn", &m.SamplesDrawn, false, "Monte-Carlo samples drawn across all sampled unions."},
		{"evaluated", &m.Evaluated, false, "Candidates that entered the checking cascade."},
		{"tail_evaluations", &m.TailEvaluations, false, "Poisson-binomial tail computations performed."},
		{"tail_memo_hits", &m.TailMemoHits, false, "Poisson-binomial tails answered from the memo."},
		{"clause_evaluated", &m.ClauseEvaluated, false, "Extension-event clauses (and clause pairs) evaluated."},
		{"subtrees_reused", &m.SubtreesReused, false, "Enumeration subtrees replayed from the incremental reuse cache."},
		{"spliced_results", &m.SplicedResults, false, "Result items emitted by incremental cache replay."},
		{"tasks_spawned", &m.TasksSpawned, false, "Subtree tasks handed to the work-stealing pool."},
		{"tasks_stolen", &m.TasksStolen, false, "Subtree tasks stolen from another worker's deque."},
	}
}

// snapshot returns the current counter values by name.
func (m *metrics) snapshot() map[string]int64 {
	out := make(map[string]int64)
	for _, v := range m.vars() {
		out[v.Name] = v.Var.Value()
	}
	return out
}

// serveHTTP content-negotiates the metrics view: clients that accept
// text/plain (Prometheus scrapers send "text/plain;version=0.0.4" first)
// get the exposition format; everything else gets the original flat JSON,
// so existing dashboards keep working.
func (m *metrics) serveHTTP(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r.Header.Get("Accept")) {
		m.servePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(m.snapshot())
}

// wantsPrometheus reports whether the Accept header asks for the text
// exposition format. JSON stays the default: only a text/plain,
// OpenMetrics, or text/* preference outranking any JSON preference
// switches. Media ranges are weighted by their q parameter (q=0 excludes a
// range); at equal q a more specific range beats a wildcard, and at equal
// q and specificity the earlier-listed range wins — so the pre-q behavior
// ("application/json listed first wins") is preserved.
func wantsPrometheus(accept string) bool {
	bestQ, bestSpec := -1.0, -1
	prom := false
	for _, part := range strings.Split(accept, ",") {
		fields := strings.Split(part, ";")
		mt := strings.ToLower(strings.TrimSpace(fields[0]))
		q := 1.0
		for _, p := range fields[1:] {
			if v, ok := strings.CutPrefix(strings.TrimSpace(p), "q="); ok {
				if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
					q = f
				}
			}
		}
		if q <= 0 {
			continue
		}
		var isProm bool
		var spec int
		switch mt {
		case "text/plain", "application/openmetrics-text":
			isProm, spec = true, 2
		case "application/json":
			isProm, spec = false, 2
		case "text/*":
			isProm, spec = true, 1
		case "*/*":
			isProm, spec = false, 0 // full wildcard keeps the JSON default
		default:
			continue
		}
		if q > bestQ || (q == bestQ && spec > bestSpec) {
			bestQ, bestSpec, prom = q, spec, isProm
		}
	}
	return prom
}

// servePrometheus renders every counter, gauge, and histogram in the
// Prometheus text exposition format 0.0.4, under the pfcimd_ namespace.
// Monotonic counters get the conventional _total suffix.
func (m *metrics) servePrometheus(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	for _, v := range m.vars() {
		name, kind := "pfcimd_"+v.Name, "gauge"
		if !v.Gauge {
			name, kind = name+"_total", "counter"
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, v.Help, name, kind, name, v.Var.Value())
	}
	writeHistogram(&b, "pfcimd_job_wall_seconds", "Job wall time from start to completion.", m.jobWall)
	writeHistogram(&b, "pfcimd_job_queue_wait_seconds", "Time jobs spent queued before a worker picked them up.", m.queueWait)
	writeHistogram(&b, "pfcimd_cache_lookup_seconds", "Result-cache lookup latency at job submit.", m.cacheGet)
	writeHistogram(&b, "pfcimd_sweep_point_lookup_seconds", "Per-point result-cache probe latency at sweep submit.", m.sweepCache)
	writeHistogram(&b, "pfcimd_shard_rpc_seconds", "Shard RPC attempt latency, placement and evaluation pooled.", m.shardRPC)
	if addrs, up := m.workerUpSnapshot(); len(addrs) > 0 {
		fmt.Fprintf(&b, "# HELP pfcimd_shard_worker_up Last health-check verdict per shard worker (1 up, 0 down).\n")
		fmt.Fprintf(&b, "# TYPE pfcimd_shard_worker_up gauge\n")
		for _, addr := range addrs {
			v := 0
			if up[addr].up {
				v = 1
			}
			fmt.Fprintf(&b, "pfcimd_shard_worker_up{worker=%q} %d\n", addr, v)
		}
		now := time.Now()
		fmt.Fprintf(&b, "# HELP pfcimd_shard_worker_last_probe_age_seconds Seconds since the worker's last health probe landed.\n")
		fmt.Fprintf(&b, "# TYPE pfcimd_shard_worker_last_probe_age_seconds gauge\n")
		for _, addr := range addrs {
			fmt.Fprintf(&b, "pfcimd_shard_worker_last_probe_age_seconds{worker=%q} %g\n",
				addr, now.Sub(up[addr].probeAt).Seconds())
		}
	}
	m.writeWatchSeries(&b)
	w.Write([]byte(b.String()))
}

// writeWatchSeries renders the per-watched-stream round telemetry:
// labeled diff counters plus labeled round-wall and reuse-ratio
// histograms, one watch="<lineage>@<options-hash>" label per stream.
func (m *metrics) writeWatchSeries(b *strings.Builder) {
	labels, ws := m.watchSnapshot()
	if len(labels) == 0 {
		return
	}
	counter := func(name, help string, get func(watchMetrics) int64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, l := range labels {
			fmt.Fprintf(b, "%s{watch=%q} %d\n", name, l, get(ws[l]))
		}
	}
	counter("pfcimd_watch_rounds_total", "Incremental rounds mined per watched (lineage, options) stream.",
		func(w watchMetrics) int64 { return w.rounds })
	counter("pfcimd_watch_diff_added_total", "Result itemsets added across a stream's incremental rounds.",
		func(w watchMetrics) int64 { return w.added })
	counter("pfcimd_watch_diff_removed_total", "Result itemsets removed across a stream's incremental rounds.",
		func(w watchMetrics) int64 { return w.removed })
	counter("pfcimd_watch_diff_changed_total", "Result itemsets whose probability or support changed across rounds.",
		func(w watchMetrics) int64 { return w.changed })
	counter("pfcimd_watch_diff_unchanged_total", "Result itemsets carried over unchanged across rounds.",
		func(w watchMetrics) int64 { return w.unchanged })
	hist := func(name, help string, get func(watchMetrics) *obs.Histogram) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		for _, l := range labels {
			snap := get(ws[l]).Snapshot()
			for i, bound := range snap.Bounds {
				fmt.Fprintf(b, "%s_bucket{watch=%q,le=%q} %d\n", name, l, formatBound(bound), snap.Cumulative[i])
			}
			fmt.Fprintf(b, "%s_bucket{watch=%q,le=\"+Inf\"} %d\n", name, l, snap.Count)
			fmt.Fprintf(b, "%s_sum{watch=%q} %g\n", name, l, snap.SumSeconds)
			fmt.Fprintf(b, "%s_count{watch=%q} %d\n", name, l, snap.Count)
		}
	}
	hist("pfcimd_watch_round_seconds", "Wall time of one incremental mining round.",
		func(w watchMetrics) *obs.Histogram { return w.roundWall })
	hist("pfcimd_watch_reuse_ratio", "Share of a round's result items spliced from the reuse cache.",
		func(w watchMetrics) *obs.Histogram { return w.reuse })
}

// writeHistogram renders one fixed-bucket histogram: cumulative _bucket
// series with le labels (inclusive upper bounds, +Inf last), then _sum and
// _count.
func writeHistogram(b *strings.Builder, name, help string, h *obs.Histogram) {
	snap := h.Snapshot()
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for i, bound := range snap.Bounds {
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, formatBound(bound), snap.Cumulative[i])
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, snap.Count)
	fmt.Fprintf(b, "%s_sum %g\n", name, snap.SumSeconds)
	fmt.Fprintf(b, "%s_count %d\n", name, snap.Count)
}

// formatBound renders a bucket bound the way Prometheus clients do:
// shortest decimal that round-trips.
func formatBound(v float64) string {
	return fmt.Sprintf("%g", v)
}
