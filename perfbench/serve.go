package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/service"
	"github.com/probdata/pfcim/internal/uncertain"
)

// cachedRate is the open-loop rate of serve-cached: about a third of the
// mix's closed-loop capacity with nproc = 2 clients on the reference host
// (2 vCPU Xeon), which read 4900–8000 ops/s (median ≈ 5900) over twenty
// 40 s runs. At about half the capacity (3500/s) the two senders queue
// behind each other, and four runs put the request median at 0.77–0.87 ms
// against 0.65–0.67 ms at this rate. A fixed constant, so every commit is
// measured at the same offered load.
const cachedRate = 2000.0 // requests/s

// Serve data shapes.
const (
	pinnedScale   = 0.05 // Mushroom-like, 406 rows
	pinnedRelSup  = 0.3
	warmKeys      = 100 // warmed key set; below the 128-entry result cache
	verifySamples = 8   // served results re-mined after each run

	warmUp = 2 * time.Second // untimed open-loop traffic before the window
)

// daemon is one pfcimd instance in this process on a loopback listener,
// with the daemon's deployed defaults apart from the fields the workload
// sets. Its logs are formatted as deployed but discarded.
type daemon struct {
	srv  *service.Server
	hs   *http.Server
	base string
	dir  string // store directory, removed on close ("" without a store)
	wg   sync.WaitGroup
}

func startDaemon(cfg service.Config) (*daemon, error) {
	cfg.Logger = discardLogger()
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background()) // nothing was submitted yet
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), dir: cfg.StoreDir}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return d, nil
}

func (d *daemon) close() {
	if d == nil {
		return
	}
	_ = d.hs.Close() // drops idle keep-alive connections; no response is in flight
	d.wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: daemon drain:", err)
	}
	if d.dir != "" {
		_ = os.RemoveAll(d.dir) // this run's temporary store
	}
}

// httpClient bounds the load generator to nproc connections.
func httpClient() *http.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: nproc(), MaxConnsPerHost: nproc(), DisableCompression: true}
	return &http.Client{Transport: tr, Timeout: 60 * time.Second}
}

// call issues one request and returns status and body.
func call(hc *http.Client, method, url, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	return resp.StatusCode, blob, err
}

// jobRec is one job the load created: when it was due, sent, and answered
// (a cache hit is done when its submit response arrives).
type jobRec struct {
	id                string
	due, sent, doneAt time.Time
}

// loadRec accumulates the observations of one load phase.
type loadRec struct {
	mu      sync.Mutex
	req     samples // ms from due time to response
	byClass map[string]samples
	bytes   samples
	late    samples
	jobs    []jobRec
	ops     int64
	doneAt  []time.Time // op completion times
	failed  int64
	errs    []string
}

func newLoadRec() *loadRec { return &loadRec{byClass: map[string]samples{}} }

func (r *loadRec) observe(class string, lat time.Duration, size int, ok bool, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.req = append(r.req, ms(lat))
	r.byClass[class] = append(r.byClass[class], ms(lat))
	r.bytes = append(r.bytes, float64(size))
	if !ok {
		r.failed++
		if len(r.errs) < 10 {
			r.errs = append(r.errs, class+": "+detail)
		}
	}
}

func (r *loadRec) job(j jobRec) {
	r.mu.Lock()
	r.jobs = append(r.jobs, j)
	r.mu.Unlock()
}

// serveEnv is a serve workload's set-up state.
type serveEnv struct {
	d          *daemon
	hc         *http.Client
	pinned     string
	pinnedOpts core.OptionsJSON
	keys       []core.OptionsJSON // the warmed keys
	warmIDs    []string           // jobs holding the warmed results
	tr         *tracer
	opSeq      atomic.Int64
}

func (e *serveEnv) close() {
	if e == nil {
		return
	}
	e.hc.CloseIdleConnections()
	e.d.close()
}

// register uploads a dataset in the text format and returns its id.
func (e *serveEnv) register(db *uncertain.DB) (string, error) {
	var buf bytes.Buffer
	if err := uncertain.Write(&buf, db); err != nil {
		return "", err
	}
	code, body, err := call(e.hc, "POST", e.d.base+"/v1/datasets", "text/plain", buf.Bytes())
	if err != nil {
		return "", err
	}
	if code != http.StatusCreated && code != http.StatusOK {
		return "", fmt.Errorf("register: HTTP %d: %s", code, body)
	}
	var info service.DatasetInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return "", err
	}
	return info.ID, nil
}

// submit posts a job and returns the status and decoded JobInfo.
func (e *serveEnv) submit(path string, req any) (int, service.JobInfo, error) {
	blob, err := json.Marshal(req)
	if err != nil {
		return 0, service.JobInfo{}, err
	}
	code, body, err := call(e.hc, "POST", e.d.base+path, "application/json", blob)
	if err != nil {
		return 0, service.JobInfo{}, err
	}
	var info service.JobInfo
	if code == http.StatusOK || code == http.StatusAccepted {
		err = json.Unmarshal(body, &info)
	}
	return code, info, err
}

// waitJob polls the daemon's job table in-process until the job is
// terminal.
func waitJob(srv *service.Server, id string, deadline time.Time) (service.JobInfo, error) {
	for {
		info, err := srv.Jobs().Get(id)
		if err != nil || info.Status.Terminal() {
			return info, err
		}
		if time.Now().After(deadline) {
			return info, fmt.Errorf("job %s: %w", id, errTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// waitJobs waits until every listed job is terminal.
func (e *serveEnv) waitJobs(ids []string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, id := range ids {
		if _, err := waitJob(e.d.srv, id, deadline); err != nil {
			return err
		}
	}
	return nil
}

func newServeEnv(tr *tracer) (*serveEnv, error) {
	d, err := startDaemon(service.Config{})
	if err != nil {
		return nil, err
	}
	e := &serveEnv{d: d, hc: httpClient(), tr: tr}
	if err := e.setup(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *serveEnv) setup() error {
	// The served data is the same for every seed: the row order moves the
	// cost of mining these small datasets by up to 2×, which would make
	// set-up time and response sizes measure the seed. The seed drives the
	// traffic instead: the op mix and key choice.
	db := mushroomDB(pinnedScale, 0)
	id, err := e.register(db)
	if err != nil {
		return err
	}
	e.pinned = id
	e.pinnedOpts = core.OptionsJSON{MinSup: core.AbsoluteMinSup(db.N(), pinnedRelSup), PFCT: 0.8, MaxExactClauses: -1}

	// Warm a key set smaller than the result cache: warmKeys distinct
	// (seed, pfct) points, each mined once, submitted in batches that fit
	// the daemon's default queue depth (64).
	for i := 0; i < warmKeys; i++ {
		o := e.pinnedOpts
		o.Seed = int64(i / 5)
		o.PFCT = []float64{0.5, 0.6, 0.7, 0.8, 0.9}[i%5]
		code, info, err := e.submit("/v1/jobs", map[string]any{"dataset": e.pinned, "options": o})
		if err != nil || (code != http.StatusAccepted && code != http.StatusOK) {
			return fmt.Errorf("warm-up submit: HTTP %d: %v", code, err)
		}
		e.keys = append(e.keys, o)
		e.warmIDs = append(e.warmIDs, info.ID)
		if len(e.warmIDs)%32 == 0 || i == warmKeys-1 {
			if err := e.waitJobs(e.warmIDs, time.Minute); err != nil {
				return err
			}
		}
	}
	return nil
}

// op runs one operation of the mix, due at due, recording into rec.
func (e *serveEnv) op(rng *rand.Rand, due time.Time, rec *loadRec) {
	e.cachedOp(rng, due, rec, e.opSeq.Add(1))
	rec.mu.Lock()
	rec.ops++
	rec.doneAt = append(rec.doneAt, time.Now())
	rec.mu.Unlock()
}

// request times one HTTP request from due, under a span named class.
func (e *serveEnv) request(rec *loadRec, class string, due time.Time, opID int64, method, path, ctype string, body []byte, okCodes ...int) (int, []byte, time.Time) {
	sp := e.tr.begin("http."+class, 0, opID)
	code, blob, err := call(e.hc, method, e.d.base+path, ctype, body)
	end := time.Now()
	e.tr.end(sp)
	ok := err == nil
	detail := ""
	if err != nil {
		detail = err.Error()
	} else {
		ok = false
		for _, c := range okCodes {
			ok = ok || code == c
		}
		if !ok {
			detail = fmt.Sprintf("HTTP %d: %.200s", code, blob)
		}
	}
	rec.observe(class, end.Sub(due), len(blob), ok, detail)
	return code, blob, end
}

// resubmitOp posts a warmed key and records the job it created. The key is
// in the result cache, so the submit response must carry the finished job.
func (e *serveEnv) resubmitOp(rec *loadRec, due time.Time, opID int64, req any) {
	blob, _ := json.Marshal(req) // plain maps and option structs always encode
	sent := time.Now()
	code, body, end := e.request(rec, "resubmit", due, opID, "POST", "/v1/jobs", "application/json", blob, http.StatusOK)
	if code != http.StatusOK {
		return
	}
	var info service.JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		rec.observe("resubmit", 0, 0, false, "decoding job: "+err.Error())
		return
	}
	if !info.Cached || info.Status != service.StatusDone {
		rec.observe("resubmit", 0, 0, false, fmt.Sprintf("job %s: %s, cached=%t; want a cache hit", info.ID, info.Status, info.Cached))
		return
	}
	rec.job(jobRec{id: info.ID, due: due, sent: sent, doneAt: end})
}

// cachedOp draws one request from the read mix. The weights of resubmit,
// GET job and /metrics follow the request counts cmd/loadgen measured for
// its cache-replay, status and metrics classes in BENCH_7.json (1949, 6314
// and 1016, about 21:68:11). loadgen never reads a dataset, so
// GET /v1/datasets/{id} takes a chosen 5 out of the GET job share.
func (e *serveEnv) cachedOp(rng *rand.Rand, due time.Time, rec *loadRec, opID int64) {
	switch x := rng.Intn(100); {
	case x < 21:
		o := e.keys[rng.Intn(len(e.keys))]
		e.resubmitOp(rec, due, opID, map[string]any{"dataset": e.pinned, "options": o})
	case x < 84:
		e.request(rec, "get_job", due, opID, "GET", "/v1/jobs/"+e.warmIDs[rng.Intn(len(e.warmIDs))], "", nil, http.StatusOK)
	case x < 89:
		e.request(rec, "get_dataset", due, opID, "GET", "/v1/datasets/"+e.pinned, "", nil, http.StatusOK)
	default:
		e.request(rec, "metrics", due, opID, "GET", "/metrics", "", nil, http.StatusOK)
	}
}

// openLoop drives the mix at rate ops/s from nproc senders for d. Sender i
// sends ops due at t0 + (k·n + i)/rate; each latency counts from its due
// time, so a stall delays, and is charged to, the ops behind it.
func (e *serveEnv) openLoop(seed int64, rate float64, d time.Duration) *loadRec {
	rec := newLoadRec()
	n := nproc()
	t0 := time.Now().Add(10 * time.Millisecond)
	end := t0.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
			for k := 0; ; k++ {
				due := t0.Add(time.Duration(float64(k*n+i) / rate * float64(time.Second)))
				if !due.Before(end) {
					return
				}
				if w := time.Until(due); w > 0 {
					time.Sleep(w)
				}
				late := time.Since(due)
				rec.mu.Lock()
				rec.late = append(rec.late, ms(late))
				rec.mu.Unlock()
				e.op(rng, due, rec)
			}
		}(i)
	}
	wg.Wait()
	return rec
}

// closedLoop runs nproc clients back to back for d and returns completed
// ops per second.
func (e *serveEnv) closedLoop(seed int64, d time.Duration) (*loadRec, float64) {
	rec := newLoadRec()
	n := nproc()
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + 500 + int64(i)))
			for time.Now().Before(end) {
				e.op(rng, time.Now(), rec)
			}
		}(i)
	}
	wg.Wait()
	return rec, windowedRate(rec.doneAt, start, d)
}

// capacityWindow is the bucket width of windowedRate.
const capacityWindow = 250 * time.Millisecond

// windowedRate returns the median completion rate (1/s) over the whole
// capacityWindow buckets of [start, start+d): a few buckets slowed by
// another tenant of the host do not move it.
func windowedRate(done []time.Time, start time.Time, d time.Duration) float64 {
	n := int(d / capacityWindow)
	if n < 1 {
		return float64(len(done)) / d.Seconds()
	}
	counts := make([]float64, n)
	for _, t := range done {
		if i := int(t.Sub(start) / capacityWindow); i >= 0 && i < n {
			counts[i]++
		}
	}
	return samples(counts).quantile(0.5) / capacityWindow.Seconds()
}

func runServe(cfg config, rep *report) error {
	tr := newTracer(cfg.trace)
	env, err := timeSetups(rep, cfg.setupReps,
		func() (*serveEnv, error) { return newServeEnv(tr) },
		func(e *serveEnv) { e.close() })
	if err != nil {
		return err
	}
	defer env.close()
	// Untimed warm-up at the paced rate: connections open, the heap grows
	// to its working size and lazily built state fills before the window.
	warm := env.openLoop(cfg.seed+1, cachedRate, warmUp)
	rep.Attempted += warm.ops
	rep.Failed += warm.failed
	before := env.d.srv.Metrics()
	total := time.Duration(cfg.seconds) * time.Second
	paced := total / 2
	rec := env.openLoop(cfg.seed, cachedRate, paced)
	closed, capacity := env.closedLoop(cfg.seed, total-paced)
	after := env.d.srv.Metrics()

	rep.Attempted += rec.ops + closed.ops
	rep.Failed += rec.failed + closed.failed
	rep.Mismatches = append(rep.Mismatches, append(append(warm.errs, rec.errs...), closed.errs...)...)

	rep.setDist("op_p50_ms", "ms", rec.req)
	rep.setDist("req_p50_ms", "ms", rec.req)
	rep.setQuantile("req_p99_ms", "ms", rec.req, 0.99)
	rep.set("capacity_ops_s", "ops/s", capacity)
	rep.setQuantile("gen.late_p99_ms", "ms", rec.late, 0.99)
	for class, s := range rec.byClass {
		rep.setDist("req."+class+"_ms", "ms", s)
	}

	var jobLat samples // a cache hit is ready when its submit response arrives
	for _, j := range rec.jobs {
		jobLat = append(jobLat, ms(j.doneAt.Sub(j.due)))
	}
	rep.setDist("job_p50_ms", "ms", jobLat)
	rep.setQuantile("job_p99_ms", "ms", jobLat, 0.99)

	if err := env.verify(rep, rec, cfg.seed); err != nil {
		return err
	}
	if cfg.trace {
		return env.serveLayers(cfg, rep, tr, rec, before, after)
	}
	return nil
}

// verify re-mines a seeded sample of served results with a direct
// core.Mine, outside the timed window; each must match byte for byte.
func (e *serveEnv) verify(rep *report, rec *loadRec, seed int64) error {
	ids := append([]string(nil), e.warmIDs...)
	for _, j := range rec.jobs {
		ids = append(ids, j.id)
	}
	sort.Strings(ids)
	rng := rand.New(rand.NewSource(seed + 99))
	rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
	if len(ids) > verifySamples {
		ids = ids[:verifySamples]
	}
	for _, id := range ids {
		info, err := e.d.srv.Jobs().Get(id)
		if err != nil {
			return err
		}
		if info.Status != service.StatusDone {
			continue // already counted as failed
		}
		ds, ok := e.d.srv.Registry().Get(info.Dataset)
		if !ok {
			rep.mismatch("job %s: dataset %s not in the registry", id, info.Dataset)
			continue
		}
		checkAgainstMine(rep, id, ds.DB(), info.Options, info.Result.Itemsets)
	}
	return nil
}

func checkAgainstMine(rep *report, id string, db *uncertain.DB, oj core.OptionsJSON, served []core.ResultItemJSON) {
	opts, err := oj.Options()
	if err != nil {
		rep.mismatch("job %s: options: %v", id, err)
		return
	}
	res, err := core.Mine(db, opts)
	if err != nil {
		rep.mismatch("job %s: direct mine: %v", id, err)
		return
	}
	got, _ := json.Marshal(served)
	want, _ := json.Marshal(res.JSON().Itemsets)
	rep.check(bytes.Equal(got, want), "job %s: served result differs from a direct core.Mine", id)
}

// serveLayers reports the per-layer metrics the serve traffic itself
// measures, after the shared probes.
func (e *serveEnv) serveLayers(cfg config, rep *report, tr *tracer, rec *loadRec, before, after map[string]int64) error {
	// The run's end state, read before the probes add their own.
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	goroutines := runtime.NumGoroutine()
	if err := layerProbes(cfg, rep, tr, nil, nil); err != nil {
		return err
	}
	rep.set("service.heap_inuse_mb_end", "MiB", float64(mem.HeapInuse)/(1<<20))
	rep.set("service.goroutines_end", "count", float64(goroutines))
	delta := func(k string) float64 { return float64(after[k] - before[k]) }
	hits, misses := delta("cache_hits"), delta("cache_misses")
	if hits+misses > 0 {
		rep.set("service.cache_hit_ratio", "ratio", hits/(hits+misses))
	}
	e.serviceJobLayers(rep, rec)
	rep.setQuantile("service.response_bytes_p50", "bytes", rec.bytes, 0.5)
	submits := float64(len(rec.jobs)) + delta("jobs_shed_queue_full") + delta("jobs_shed_quota")
	if submits > 0 {
		rep.set("service.shed_ratio", "ratio", (delta("jobs_shed_queue_full")+delta("jobs_shed_quota"))/submits)
	}
	rep.set("gen.late_p99_ms", "ms", rec.late.quantile(0.99))
	rep.Spans = tr.done()
	return nil
}

// serviceJobLayers reads queue wait and mining wall time from every mined
// job in the daemon's table (the set-up jobs), and HTTP overhead from the
// paced phase's resubmits.
func (e *serveEnv) serviceJobLayers(rep *report, rec *loadRec) {
	var wait, wall samples
	for _, info := range e.d.srv.Jobs().List() {
		if info.Cached || info.StartedAt == nil || info.FinishedAt == nil {
			continue
		}
		wait = append(wait, ms(info.StartedAt.Sub(info.SubmittedAt)))
		wall = append(wall, ms(info.FinishedAt.Sub(*info.StartedAt)))
	}
	rep.setQuantile("service.queue_wait_p50_ms", "ms", wait, 0.5)
	rep.setQuantile("service.queue_wait_p99_ms", "ms", wait, 0.99)
	rep.setDist("service.mine_wall_p50_ms", "ms", wall)
	// A cache hit neither waits nor mines: its whole turnaround is HTTP.
	var over samples
	for _, j := range rec.jobs {
		over = append(over, ms(j.doneAt.Sub(j.sent)))
	}
	rep.setDist("service.http_overhead_ms", "ms", over)
}
