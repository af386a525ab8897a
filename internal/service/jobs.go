package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/obs"
	"github.com/probdata/pfcim/internal/shard"
	"github.com/probdata/pfcim/internal/stream"
	"github.com/probdata/pfcim/internal/sweep"
	"github.com/probdata/pfcim/internal/uncertain"
)

// JobKind distinguishes single mining jobs from parameter sweeps; both
// share the job table, worker pool, and lifecycle.
type JobKind string

const (
	JobKindMine  JobKind = "" // single mining run (the default, elided on the wire)
	JobKindSweep JobKind = "sweep"
)

// JobStatus is the lifecycle state of a mining job.
type JobStatus string

const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Submission errors the HTTP layer maps to status codes.
var (
	ErrQueueFull    = errors.New("service: job queue is full")
	ErrShuttingDown = errors.New("service: daemon is shutting down")
	ErrNoSuchJob    = errors.New("service: no such job")
)

// job is the manager's internal record; every field after the immutable
// header is guarded by the manager's mutex.
type job struct {
	id       string
	kind     JobKind
	dataset  string // resolved version id
	ref      string // as submitted (may carry a @latest / @N selector)
	watched  bool   // ref follows the lineage: mine via the shared watcher
	lineage  string
	db       *uncertain.DB
	options  core.OptionsJSON // as submitted, echoed back to clients
	opts     core.Options     // parsed, with daemon defaults applied
	optKey   string           // canonical options key (second cache-key half)
	cacheKey string
	traceID  string      // minted at submit when tracing is on; rides every shard RPC of the job
	slots    []sweepSlot // sweep jobs: one per grid point
	timeout  time.Duration

	status       JobStatus
	cached       bool
	errMsg       string
	result       *encoded[core.ResultJSON] // shared with the result cache
	diff         *encoded[stream.DiffJSON] // watched jobs: change set vs the previous watched round
	sweepRes     *encoded[sweep.ResultJSON]
	submitted    time.Time
	started      time.Time
	finished     time.Time
	wallMillis   int64
	queueWaitMS  int64
	tracer       *obs.Tracer  // per-job span recorder (nil when tracing is off)
	profile      *obs.Profile // merged at completion, served by /v1/jobs/{id}/trace
	cancel       context.CancelFunc
	userCanceled bool
}

// JobInfo is an immutable snapshot of a job, safe to serialize.
type JobInfo struct {
	ID string `json:"id"`
	// TraceID correlates the job across processes: it tags the daemon's log
	// lines and rides every shard RPC of the job as the X-Pfcim-Trace
	// header, so worker logs join on it. Empty when tracing is disabled.
	TraceID     string           `json:"trace_id,omitempty"`
	Kind        JobKind          `json:"kind,omitempty"`
	Dataset     string           `json:"dataset"`
	Status      JobStatus        `json:"status"`
	Cached      bool             `json:"cached,omitempty"`
	Error       string           `json:"error,omitempty"`
	Options     core.OptionsJSON `json:"options"`
	SubmittedAt time.Time        `json:"submitted_at"`
	StartedAt   *time.Time       `json:"started_at,omitempty"`
	FinishedAt  *time.Time       `json:"finished_at,omitempty"`
	// WallMillis is the mining duration (start to completion); QueueWaitMillis
	// the time spent queued before a worker picked the job up.
	WallMillis      int64            `json:"wall_ms,omitempty"`
	QueueWaitMillis int64            `json:"queue_wait_ms,omitempty"`
	Result          *core.ResultJSON `json:"result,omitempty"`
	// Diff is set on watched (@latest) jobs: the closed itemsets that were
	// added, removed, or changed relative to the lineage's previous watched
	// mine under the same canonical options (all-added on the first).
	Diff  *stream.DiffJSON  `json:"diff,omitempty"`
	Sweep *sweep.ResultJSON `json:"sweep,omitempty"`
}

// jobView is a job's snapshot as handlers serve it: the JobInfo envelope
// with its heavy payloads left nil, plus those payloads in encoded form.
// Taking a view under Manager.mu copies only the envelope and three
// pointers; rendering the payloads happens after the lock is released.
type jobView struct {
	info   JobInfo
	result *encoded[core.ResultJSON]
	diff   *encoded[stream.DiffJSON]
	sweep  *encoded[sweep.ResultJSON]
}

func (j *job) snapshot() jobView {
	info := JobInfo{
		ID:              j.id,
		TraceID:         j.traceID,
		Kind:            j.kind,
		Dataset:         j.dataset,
		Status:          j.status,
		Cached:          j.cached,
		Error:           j.errMsg,
		Options:         j.options,
		SubmittedAt:     j.submitted,
		WallMillis:      j.wallMillis,
		QueueWaitMillis: j.queueWaitMS,
	}
	if !j.started.IsZero() {
		t := j.started
		info.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		info.FinishedAt = &t
	}
	return jobView{info: info, result: j.result, diff: j.diff, sweep: j.sweepRes}
}

// full fills the envelope's payloads with their decoded values, for the
// in-process API. Only a result read through from the store can fail: it
// is decoded here for the first time. Diffs and sweeps are built from
// values and never fail.
func (v jobView) full() (JobInfo, error) {
	info := v.info
	if v.result != nil {
		res, err := v.result.value()
		if err != nil {
			return JobInfo{}, fmt.Errorf("service: job %s: %w", info.ID, err)
		}
		info.Result = res
	}
	if v.diff != nil {
		info.Diff, _ = v.diff.value()
	}
	if v.sweep != nil {
		info.Sweep, _ = v.sweep.value()
	}
	return info, nil
}

// Manager owns the job table and the bounded worker pool. Submissions that
// hit the result cache complete synchronously without touching the pool;
// everything else queues and is mined by one of Workers goroutines under a
// per-job context.
type Manager struct {
	cache      *resultCache
	metrics    *metrics
	log        *slog.Logger
	maxJobTime time.Duration
	slowJob    time.Duration // wall-time threshold for slow-job warnings (0 = off)
	traceJobs  bool          // attach a per-job obs.Tracer to every mined job
	shards     int           // default Options.Shards for jobs that leave it 0
	shardRPC   *shard.Client // nil unless the daemon coordinates shard workers
	watch      *watchSet     // per-(lineage, options) incremental miners for @latest jobs

	// beforeMine, when non-nil, runs on the worker right before a job's
	// mine, with the job's context: a test seam that holds a job in the
	// running state for as long as a test needs. Set it before the first
	// submission.
	beforeMine func(ctx context.Context)

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	queue      chan *job

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	seq    int
	closed bool
}

// newManager builds the job manager from the daemon Config (which New has
// already defaulted) and starts the worker pool.
func newManager(cfg Config, cache *resultCache, mtr *metrics, log *slog.Logger, sc *shard.Client) *Manager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cache:      cache,
		metrics:    mtr,
		log:        log,
		maxJobTime: cfg.MaxJobTime,
		slowJob:    cfg.SlowJobThreshold,
		traceJobs:  !cfg.DisableJobTracing,
		shards:     cfg.Shards,
		shardRPC:   sc,
		watch: newWatchSet(func(label string, ri stream.RoundInfo) {
			mtr.observeWatchRound(label, watchRoundObs{
				Wall:       ri.Wall,
				Added:      int64(len(ri.Diff.Added)),
				Removed:    int64(len(ri.Diff.Removed)),
				Changed:    int64(len(ri.Diff.Changed)),
				Unchanged:  int64(ri.Diff.Unchanged),
				ReuseRatio: ri.ReuseRatio(),
			})
		}),
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *job, cfg.QueueDepth),
		jobs:       make(map[string]*job),
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit validates the request, consults the result cache, and either
// completes the job immediately (cache hit) or enqueues it. timeout 0 means
// the daemon's MaxJobTime; a positive request is capped by it. ref is the
// dataset reference as submitted; when it follows the lineage (@latest) the
// job mines through the lineage's shared incremental watcher and reports a
// diff — the result is byte-identical to a pinned mine of the resolved
// version, so it shares that version's cache entry either way.
func (m *Manager) Submit(ds *Dataset, ref string, oj core.OptionsJSON, timeout time.Duration) (JobInfo, error) {
	return fullInfo(m.submit(ds, ref, oj, timeout))
}

// fullInfo adapts a view-returning method to the JobInfo-returning API.
func fullInfo(v jobView, err error) (JobInfo, error) {
	if err != nil {
		return JobInfo{}, err
	}
	return v.full()
}

func (m *Manager) submit(ds *Dataset, ref string, oj core.OptionsJSON, timeout time.Duration) (jobView, error) {
	opts, err := oj.Options()
	if err != nil {
		return jobView{}, err
	}
	if err := m.applyShards(&opts); err != nil {
		return jobView{}, err
	}
	canon, err := opts.Canonical()
	if err != nil {
		return jobView{}, err
	}
	optKey, err := canon.CanonicalKey()
	if err != nil {
		return jobView{}, err
	}
	capParallelism(&opts)
	if timeout <= 0 || (m.maxJobTime > 0 && timeout > m.maxJobTime) {
		timeout = m.maxJobTime
	}

	watched := IsLatestRef(ref)
	if watched && opts.Search == core.BFS {
		return jobView{}, fmt.Errorf("service: @latest jobs mine incrementally and require DFS search")
	}
	j := &job{
		dataset:   ds.ID,
		ref:       ref,
		watched:   watched,
		lineage:   ds.Lineage,
		db:        ds.DB(),
		options:   oj,
		opts:      opts,
		optKey:    optKey,
		cacheKey:  cacheKey(ds, canon, optKey),
		timeout:   timeout,
		submitted: time.Now(),
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return jobView{}, ErrShuttingDown
	}
	m.seq++
	j.id = fmt.Sprintf("j%d", m.seq)
	if m.traceJobs {
		// The job id doubles as the distributed trace id: it is unique per
		// daemon, tags every log line, and rides every shard RPC of the job.
		j.traceID = j.id
	}

	lookupStart := time.Now()
	res, ok := m.cache.get(j.cacheKey)
	m.metrics.cacheGet.Observe(time.Since(lookupStart))
	if ok {
		j.status = StatusDone
		j.cached = true
		j.result = res
		j.finished = time.Now()
		m.metrics.CacheHits.Add(1)
		m.metrics.JobsDone.Add(1)
		m.addLocked(j)
		m.log.Info("job served from cache", "job", j.id, "dataset", j.dataset)
		return j.snapshot(), nil
	}
	m.metrics.CacheMisses.Add(1)

	j.status = StatusQueued
	select {
	case m.queue <- j:
	default:
		return jobView{}, ErrQueueFull
	}
	m.metrics.JobsQueued.Add(1)
	m.addLocked(j)
	m.log.Info("job queued", "job", j.id, "dataset", j.dataset)
	return j.snapshot(), nil
}

// capParallelism bounds a submission's Parallelism, which comes from an
// untrusted request: the scheduler allocates one worker and one sub-miner
// per unit, and no more than GOMAXPROCS of them can run at once anyway.
// Canonical clears Parallelism, so the cap changes neither results nor
// cache keys.
func capParallelism(opts *core.Options) {
	if n := runtime.GOMAXPROCS(0); opts.Parallelism > n {
		opts.Parallelism = n
	}
}

// applyShards folds the daemon's default shard count into a submission's
// options BEFORE the canonical key is computed, so the cache is keyed by
// the layout that is actually mined. On a coordinator (shard workers
// configured), an explicit shard count that differs from the placement
// layout is rejected: the workers hold slices of exactly Config.Shards
// ranges, so no other layout can be evaluated remotely.
func (m *Manager) applyShards(opts *core.Options) error {
	if opts.Shards == 0 {
		opts.Shards = m.shards
		return nil
	}
	if m.shardRPC != nil && opts.Shards != m.shards {
		return fmt.Errorf("service: options request %d shards but this daemon places datasets at %d; omit the shards field or match the daemon's -shards",
			opts.Shards, m.shards)
	}
	return nil
}

func (m *Manager) addLocked(j *job) {
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
}

// Get returns a snapshot of the job with the given id.
func (m *Manager) Get(id string) (JobInfo, error) { return fullInfo(m.view(id)) }

func (m *Manager) view(id string) (jobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return jobView{}, ErrNoSuchJob
	}
	return j.snapshot(), nil
}

// Trace errors the HTTP layer maps to status codes.
var (
	ErrTracingDisabled = errors.New("service: job tracing is disabled (daemon started with -no-job-trace)")
	ErrJobNotFinished  = errors.New("service: job has not finished; trace is available once it is terminal")
	ErrNoTrace         = errors.New("service: job has no trace (served from cache or canceled before start)")
)

// Trace returns the finished job's phase profile. A cache-hit job never ran
// the miner and has no profile.
func (m *Manager) Trace(id string) (*obs.Profile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNoSuchJob
	}
	if !m.traceJobs {
		return nil, ErrTracingDisabled
	}
	if !j.status.Terminal() {
		return nil, ErrJobNotFinished
	}
	if j.profile == nil {
		return nil, ErrNoTrace
	}
	return j.profile, nil
}

// List returns snapshots of every job in submission order. A result whose
// stored bytes no longer decode is left out of its job's snapshot.
func (m *Manager) List() []JobInfo {
	views := m.views()
	out := make([]JobInfo, len(views))
	for i, v := range views {
		info, err := v.full()
		if err != nil {
			info = v.info
		}
		out[i] = info
	}
	return out
}

func (m *Manager) views() []jobView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]jobView, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id].snapshot())
	}
	return out
}

// Cancel aborts the job: a queued job is marked canceled and skipped by the
// pool; a running job has its context canceled and transitions when the
// miner returns (MineContext aborts at the next enumeration node).
// Canceling a terminal job is a no-op.
func (m *Manager) Cancel(id string) (JobInfo, error) { return fullInfo(m.cancel(id)) }

func (m *Manager) cancel(id string) (jobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return jobView{}, ErrNoSuchJob
	}
	switch j.status {
	case StatusQueued:
		j.status = StatusCanceled
		j.errMsg = "canceled before start"
		j.finished = time.Now()
		m.metrics.JobsCanceled.Add(1)
		m.log.Info("job canceled while queued", "job", j.id)
	case StatusRunning:
		j.userCanceled = true
		j.cancel()
		m.log.Info("job cancellation requested", "job", j.id)
	}
	return j.snapshot(), nil
}

// Running returns the number of jobs currently executing.
func (m *Manager) Running() int64 { return m.metrics.JobsRunning.Value() }

func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.run(j)
	}
}

func (m *Manager) run(j *job) {
	m.mu.Lock()
	if j.status != StatusQueued { // canceled while queued
		m.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.started = time.Now()
	queueWait := j.started.Sub(j.submitted)
	j.queueWaitMS = queueWait.Milliseconds()
	if m.traceJobs {
		// One tracer per job: every enumeration of the job (a sweep job runs
		// several) records into it, and the merged profile is served by
		// GET /v1/jobs/{id}/trace. The canonical cache key clears the field,
		// so tracing never splits the result cache.
		j.tracer = obs.New()
		j.opts.Tracer = j.tracer
	}
	var parent context.Context
	if j.timeout > 0 {
		parent, j.cancel = context.WithTimeout(m.baseCtx, j.timeout)
	} else {
		parent, j.cancel = context.WithCancel(m.baseCtx)
	}
	// The job context carries a cancellation cause: when a shard RPC
	// ultimately fails, the session cancels the job with the structured
	// RPCError, so the job fails promptly with "which worker, which shard"
	// instead of hanging or reporting a bare context error.
	ctx, fail := context.WithCancelCause(parent)
	if j.traceID != "" {
		// Every shard RPC of the job carries the trace id, so worker logs
		// correlate with this job's records and trace.
		ctx = shard.WithTraceID(ctx, j.traceID)
	}
	// Watched jobs mine through the shared incremental watcher and never
	// attach the RPC kernel: the inline partition arithmetic is byte-
	// identical (DESIGN §8.3), so results stay exchangeable with pinned
	// distributed jobs on the same version.
	var sess *shard.Session
	if m.shardRPC != nil && j.kind != JobKindSweep && !j.watched && j.opts.Shards >= 2 {
		var err error
		if sess, err = m.shardRPC.Kernel(ctx, fail, j.dataset); err == nil {
			// The session merges worker-side span batches into the job's
			// tracer, attributed per worker address (nil tracer: no-op).
			sess.SetTracer(j.tracer)
			j.opts.ShardKernel = sess
		} else {
			// No placement (e.g. the dataset is smaller than the shard
			// count): mine in-process — the inline sharded arithmetic is
			// byte-identical, so the cached result is still exchangeable.
			m.log.Warn("mining locally without shard workers", "job", j.id,
				"dataset", j.dataset, "error", err)
		}
	}
	cancel := j.cancel
	ds, opts := j.dataset, j.opts
	m.mu.Unlock()
	defer cancel()
	defer fail(nil)

	m.metrics.JobsRunning.Add(1)
	m.metrics.queueWait.Observe(queueWait)
	m.log.Info("job started", "job", j.id, "trace", j.traceID, "kind", string(j.kind), "dataset", ds,
		"queue_wait_ms", queueWait.Milliseconds(), "min_sup", opts.MinSup, "pfct", opts.PFCT)
	if m.beforeMine != nil {
		m.beforeMine(ctx)
	}
	res, sres, diff, err := m.mine(ctx, j)
	if sess != nil && err == nil {
		// Every tail the miner evaluated came through the session; the
		// rest of what it fetched ahead was never consumed.
		if wasted := sess.FetchedTails() - int64(res.Stats.TailEvaluations); wasted > 0 {
			m.metrics.ShardTailsWasted.Add(wasted)
		}
	}
	if err != nil {
		// Surface the structured shard failure the session installed as the
		// cancellation cause, not the miner's bare "context canceled".
		var rpcErr *shard.RPCError
		if errors.As(context.Cause(ctx), &rpcErr) {
			err = fmt.Errorf("service: distributed evaluation failed: %w", rpcErr)
		}
	}
	m.metrics.JobsRunning.Add(-1)
	now := time.Now()

	// Encode the result and write it to the cache and the store before
	// taking m.mu: a store write fsyncs, and status reads, submits and
	// drains must not wait on the disk. The job reads as running until the
	// write returns, so a job that reads done has its result stored
	// (DESIGN §17.2).
	var result *encoded[core.ResultJSON]
	var sweepRes *encoded[sweep.ResultJSON]
	switch {
	case err == nil && j.kind == JobKindSweep:
		sweepRes = encodedValue(m.assembleSweep(j, sres))
	case err == nil:
		rj := res.JSON()
		result = encodedValue(&rj)
		m.cache.put(j.cacheKey, result)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	j.finished = now
	wall := now.Sub(j.started)
	j.wallMillis = wall.Milliseconds()
	m.metrics.jobWall.Observe(wall)
	if j.tracer != nil {
		// The pool has joined and the job is terminal: every recorder is
		// quiescent, so the merge is race-free.
		j.profile = j.tracer.Profile()
	}
	if m.slowJob > 0 && wall > m.slowJob {
		m.metrics.SlowJobs.Add(1)
		m.log.Warn("slow job", "job", j.id, "kind", string(j.kind), "dataset", j.dataset,
			"wall_ms", j.wallMillis, "threshold_ms", m.slowJob.Milliseconds(),
			"min_sup", j.opts.MinSup, "pfct", j.opts.PFCT)
	}
	switch {
	case err == nil && j.kind == JobKindSweep:
		j.sweepRes = sweepRes
		j.status = StatusDone
		m.metrics.JobsDone.Add(1)
		m.metrics.SweepsDone.Add(1)
		m.metrics.SweepPointsComputed.Add(int64(sres.Stats.Points))
		m.metrics.SweepEnumerations.Add(int64(sres.Stats.FullEnumerations))
		m.metrics.MineWallMillis.Add(j.wallMillis)
		for _, pr := range sres.Points {
			m.metrics.addStats(pr.Stats)
		}
		m.log.Info("sweep done", "job", j.id, "wall_ms", j.wallMillis,
			"points", len(j.slots), "enumerations", sres.Stats.FullEnumerations)
	case err == nil:
		j.result = result
		if diff != nil {
			j.diff = encodedValue(diff)
		}
		j.status = StatusDone
		m.metrics.JobsDone.Add(1)
		if j.watched {
			m.metrics.WatchedMines.Add(1)
		}
		m.metrics.MineWallMillis.Add(j.wallMillis)
		m.metrics.addStats(res.Stats)
		m.log.Info("job done", "job", j.id, "wall_ms", j.wallMillis,
			"itemsets", len(res.Itemsets), "nodes", res.Stats.NodesVisited,
			"watched", j.watched, "subtrees_reused", res.Stats.SubtreesReused)
	case j.userCanceled:
		j.status = StatusCanceled
		j.errMsg = err.Error()
		m.metrics.JobsCanceled.Add(1)
		m.log.Info("job canceled", "job", j.id, "wall_ms", j.wallMillis)
	default:
		j.status = StatusFailed
		j.errMsg = err.Error()
		m.metrics.JobsFailed.Add(1)
		m.log.Error("job failed", "job", j.id, "wall_ms", j.wallMillis, "error", j.errMsg)
	}
}

// mine runs the miner (for a sweep job, the sweep engine over the points
// the cache missed; for a watched job, the lineage's incremental watcher)
// with panic isolation: a panicking job fails with the recovered value and
// stack instead of killing the daemon's worker.
func (m *Manager) mine(ctx context.Context, j *job) (res *core.Result, sres *sweep.Result, diff *stream.DiffJSON, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if j.kind == JobKindSweep {
		sres, err = sweep.Mine(ctx, j.db, missingPoints(j), j.opts)
		return nil, sres, nil, err
	}
	if j.watched {
		w, werr := m.watch.get(j.lineage, j.optKey, j.opts)
		if werr != nil {
			return nil, nil, nil, werr
		}
		res, diff, err = w.mine(ctx, j.db, j.opts, j.tracer)
		return res, nil, diff, err
	}
	res, err = core.MineContext(ctx, j.db, j.opts)
	return res, nil, nil, err
}

// Drain stops intake, cancels jobs still queued, and waits for running jobs
// to finish. If ctx expires first, the running jobs' contexts are canceled
// and Drain keeps waiting for the (now prompt) returns, so workers never
// leak. Safe to call more than once.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
		for _, j := range m.jobs {
			if j.status == StatusQueued {
				j.status = StatusCanceled
				j.errMsg = "canceled: daemon shutting down"
				j.finished = time.Now()
				m.metrics.JobsCanceled.Add(1)
			}
		}
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.baseCancel()
		<-done
		return ctx.Err()
	}
}
