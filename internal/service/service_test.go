package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/gen"
	"github.com/probdata/pfcim/internal/uncertain"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

// hardDB is a Mushroom-like workload big enough to exercise every mining
// counter. Tests that need a job queued or running hold it with holdJobs
// instead of counting on the mine being slow.
func hardDB(t *testing.T) *uncertain.DB {
	t.Helper()
	return gen.AssignGaussian(gen.MushroomLike(0.03, 42), 0.5, 0.5, 43)
}

// holdJobs makes every job of s wait in the running state, right before its
// mine, until the job's context ends (a cancel, its timeout, or a drain's
// deadline); each job that reaches the hold is announced on the returned
// channel. Tests that need a job queued or running act only after that
// announcement, however fast the miner is. Call before the first
// submission, and end every held job before the test returns.
func holdJobs(s *Server) <-chan struct{} {
	started := make(chan struct{})
	s.Jobs().beforeMine = func(ctx context.Context) {
		select {
		case started <- struct{}{}:
		case <-ctx.Done():
		}
		<-ctx.Done()
	}
	return started
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return v
}

func uploadDB(t *testing.T, baseURL string, db *uncertain.DB) DatasetInfo {
	t.Helper()
	var buf bytes.Buffer
	if err := uncertain.Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/datasets", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("dataset upload: status %d", resp.StatusCode)
	}
	return decode[DatasetInfo](t, resp)
}

// waitJob polls until the job reaches a terminal status.
func waitJob(t *testing.T, baseURL, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(baseURL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		info := decode[JobInfo](t, resp)
		if info.Status.Terminal() {
			return info
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobInfo{}
}

func TestRegistryContentHash(t *testing.T) {
	r := NewRegistry()
	d1, fresh, err := r.Register(uncertain.PaperExample(), false)
	if err != nil || !fresh {
		t.Fatalf("first registration: fresh=%v err=%v", fresh, err)
	}
	d2, fresh, err := r.Register(uncertain.PaperExample(), false)
	if err != nil || fresh {
		t.Fatalf("re-registration should dedupe: fresh=%v err=%v", fresh, err)
	}
	if d1.ID != d2.ID || d1 != d2 {
		t.Errorf("same content must map to the same dataset: %q vs %q", d1.ID, d2.ID)
	}
	d3, _, err := r.Register(uncertain.PaperExampleExtended(), false)
	if err != nil {
		t.Fatal(err)
	}
	if d3.ID == d1.ID {
		t.Error("different content must map to different ids")
	}
	if got := r.Len(); got != 2 {
		t.Errorf("registry has %d datasets, want 2", got)
	}
	if d1.Stats.NumTransactions != 4 || d1.Stats.NumItems != 4 {
		t.Errorf("Table II stats wrong: %+v", d1.Stats)
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	mk := func(n int) *encoded[core.ResultJSON] {
		return encodedValue(&core.ResultJSON{Itemsets: make([]core.ResultItemJSON, n)})
	}
	c.put("a", mk(1))
	c.put("b", mk(2))
	if _, ok := c.get("a"); !ok { // promotes a
		t.Fatal("a should be cached")
	}
	c.put("c", mk(3)) // evicts b, the least recently used
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if got, ok := c.get("a"); !ok || len(got.val.Itemsets) != 1 {
		t.Error("a should have survived eviction")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c should be cached")
	}
	disabled := newResultCache(-1)
	disabled.put("x", mk(1))
	if _, ok := disabled.get("x"); ok {
		t.Error("disabled cache should never store")
	}
}

func TestDatasetAndJobLifecycle(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	ds := uploadDB(t, ts.URL, uncertain.PaperExample())
	if ds.NumTransactions != 4 || ds.NumItems != 4 {
		t.Fatalf("Table II stats wrong: %+v", ds)
	}

	// Re-upload is idempotent: 200, same id.
	var buf bytes.Buffer
	if err := uncertain.Write(&buf, uncertain.PaperExample()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/datasets", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-upload status %d, want 200", resp.StatusCode)
	}
	if got := decode[DatasetInfo](t, resp); got.ID != ds.ID {
		t.Fatalf("re-upload id %q, want %q", got.ID, ds.ID)
	}

	// Mine Example 1.2: min_sup 2, pfct 0.8 → {abc: 0.8754, abcd: 0.81}.
	resp = postJSON(t, ts.URL+"/v1/jobs", jobRequest{
		Dataset: ds.ID,
		Options: core.OptionsJSON{MinSup: 2, PFCT: 0.8},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	job := decode[JobInfo](t, resp)
	info := waitJob(t, ts.URL, job.ID)
	if info.Status != StatusDone {
		t.Fatalf("job = %+v, want done", info)
	}
	if info.Cached {
		t.Error("first job cannot be a cache hit")
	}
	if n := len(info.Result.Itemsets); n != 2 {
		t.Fatalf("got %d itemsets, want 2", n)
	}
	if got := info.Result.Itemsets[1].Prob; math.Abs(got-0.81) > 1e-9 {
		t.Errorf("Pr_FC(abcd) = %v, want 0.81", got)
	}

	// Same sweep point again: served from cache, already terminal at submit.
	resp = postJSON(t, ts.URL+"/v1/jobs", jobRequest{
		Dataset: ds.ID,
		Options: core.OptionsJSON{MinSup: 2, PFCT: 0.8, Parallelism: 4}, // execution knob: same cache key
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached submit status %d, want 200", resp.StatusCode)
	}
	hit := decode[JobInfo](t, resp)
	if !hit.Cached || hit.Status != StatusDone {
		t.Fatalf("expected a cache hit, got %+v", hit)
	}
	if !bytes.Equal(mustJSON(t, hit.Result.Itemsets), mustJSON(t, info.Result.Itemsets)) {
		t.Error("cached result differs from the mined result")
	}
	m := s.Metrics()
	if m["cache_hits"] != 1 || m["cache_misses"] != 1 {
		t.Errorf("cache counters = hits %d misses %d, want 1/1", m["cache_hits"], m["cache_misses"])
	}
	if m["jobs_done"] != 2 {
		t.Errorf("jobs_done = %d, want 2", m["jobs_done"])
	}

	// Listings include both jobs, without result payloads.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[[]JobInfo](t, resp)
	if len(list) != 2 {
		t.Fatalf("job list has %d entries, want 2", len(list))
	}
	for _, j := range list {
		if j.Result != nil {
			t.Error("job listing should elide results")
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestSubmitValidation(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	// Unknown dataset.
	resp := postJSON(t, ts.URL+"/v1/jobs", jobRequest{Dataset: "nope", Options: core.OptionsJSON{MinSup: 2, PFCT: 0.8}})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown dataset: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	ds := uploadDB(t, ts.URL, uncertain.PaperExample())
	// Invalid options (PFCT out of range) are rejected at submit.
	resp = postJSON(t, ts.URL+"/v1/jobs", jobRequest{Dataset: ds.ID, Options: core.OptionsJSON{MinSup: 2, PFCT: 1.5}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad options: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	// Malformed dataset upload.
	r2, err := http.Post(ts.URL+"/v1/datasets", "text/plain", strings.NewReader("1 2 : 7.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad dataset: status %d, want 400", r2.StatusCode)
	}
	r2.Body.Close()
	// Path loading is disabled by default.
	r3 := postJSON(t, ts.URL+"/v1/datasets", map[string]string{"path": "/etc/hostname"})
	if r3.StatusCode != http.StatusForbidden {
		t.Errorf("path load: status %d, want 403", r3.StatusCode)
	}
	r3.Body.Close()
}

// TestRemovedOptionKeysRejected: execution knobs that are now fixed
// constants are no longer part of the options wire form, so a request that
// still sends one gets the strict decoder's 400 naming the key.
func TestRemovedOptionKeysRejected(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	ds := uploadDB(t, ts.URL, uncertain.PaperExample())
	for _, kv := range []struct{ key, value string }{
		{"split_depth", "2"},
		{"tail_memo_entries", "-1"},
		{"max_pair_clauses", "8"},
		{"tail_kernel", `"dp"`},
	} {
		t.Run(kv.key, func(t *testing.T) {
			body := `{"dataset": "` + ds.ID + `", "options": {"min_sup": 2, "pfct": 0.8, "` + kv.key + `": ` + kv.value + `}}`
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				resp.Body.Close()
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			if er := decode[errorResponse](t, resp); er.Field != kv.key {
				t.Errorf("field = %q, want %q (error: %s)", er.Field, kv.key, er.Error)
			}
		})
	}
}

// TestParallelismCapped: the request's parallelism is untrusted and the
// scheduler allocates per unit, so Submit caps it at GOMAXPROCS. A huge
// value must mine normally — with the cache off, so both jobs really
// mine — and return the itemsets of a serial job.
func TestParallelismCapped(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, CacheSize: -1})
	db := hardDB(t)
	ds := uploadDB(t, ts.URL, db)
	mine := func(par int) JobInfo {
		t.Helper()
		opts := core.OptionsJSON{MinSup: core.AbsoluteMinSup(db.N(), 0.3), PFCT: 0.5, Parallelism: par}
		resp := postJSON(t, ts.URL+"/v1/jobs", jobRequest{Dataset: ds.ID, Options: opts})
		if resp.StatusCode != http.StatusAccepted {
			resp.Body.Close()
			t.Fatalf("parallelism %d: submit status %d, want 202", par, resp.StatusCode)
		}
		info := waitJob(t, ts.URL, decode[JobInfo](t, resp).ID)
		if info.Status != StatusDone {
			t.Fatalf("parallelism %d: job = %+v, want done", par, info)
		}
		return info
	}
	serial := mine(0)
	huge := mine(1 << 30)
	if len(serial.Result.Itemsets) == 0 {
		t.Fatal("workload mined no itemsets; the comparison would be vacuous")
	}
	if !bytes.Equal(mustJSON(t, huge.Result.Itemsets), mustJSON(t, serial.Result.Itemsets)) {
		t.Error("parallelism 1<<30 mined different itemsets than parallelism 0")
	}
}

func TestCancelRunningJob(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	started := holdJobs(s)
	ds := uploadDB(t, ts.URL, hardDB(t))
	resp := postJSON(t, ts.URL+"/v1/jobs", jobRequest{
		Dataset: ds.ID,
		Options: core.OptionsJSON{MinSup: 4, PFCT: 0.5},
	})
	job := decode[JobInfo](t, resp)
	<-started // the worker picked it up: running
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	info := waitJob(t, ts.URL, job.ID)
	if info.Status != StatusCanceled {
		t.Fatalf("job = %+v, want canceled", info)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v; MineContext should abort at the next node", elapsed)
	}
	if !strings.Contains(info.Error, "context canceled") {
		t.Errorf("canceled job error = %q, want a context error", info.Error)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 8})
	started := holdJobs(s)
	hard := uploadDB(t, ts.URL, hardDB(t))
	// Occupy the single worker, then queue a second job and cancel it
	// before it can start.
	blocker := decode[JobInfo](t, postJSON(t, ts.URL+"/v1/jobs", jobRequest{
		Dataset: hard.ID, Options: core.OptionsJSON{MinSup: 4, PFCT: 0.5},
	}))
	<-started
	queued := decode[JobInfo](t, postJSON(t, ts.URL+"/v1/jobs", jobRequest{
		Dataset: hard.ID, Options: core.OptionsJSON{MinSup: 5, PFCT: 0.5},
	}))
	if queued.Status != StatusQueued {
		t.Fatalf("second job = %+v, want queued behind the held one", queued)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	info := decode[JobInfo](t, r)
	if info.Status != StatusCanceled {
		t.Fatalf("queued job = %+v, want canceled immediately", info)
	}
	// Cancel the blocker too so cleanup drains fast.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.ID, nil)
	if r, err := http.DefaultClient.Do(req); err == nil {
		r.Body.Close()
	}
	waitJob(t, ts.URL, blocker.ID)
	if got := s.Metrics()["jobs_canceled"]; got != 2 {
		t.Errorf("jobs_canceled = %d, want 2", got)
	}
}

func TestQueueFullRejects(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 1})
	started := holdJobs(s)
	hard := uploadDB(t, ts.URL, hardDB(t))
	submit := func(minSup int) *http.Response {
		return postJSON(t, ts.URL+"/v1/jobs", jobRequest{
			Dataset: hard.ID, Options: core.OptionsJSON{MinSup: minSup, PFCT: 0.5},
		})
	}
	// One job holds the worker and one fills the queue; the next
	// submission must be shed with a structured 429.
	var ids []string
	for minSup := 4; minSup <= 5; minSup++ {
		resp := submit(minSup)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d, want 202", len(ids)+1, resp.StatusCode)
		}
		ids = append(ids, decode[JobInfo](t, resp).ID)
		if minSup == 4 {
			<-started
		}
	}
	resp := submit(6)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submission past a full queue: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue-full 429 lacks Retry-After")
	}
	if er := decode[errorResponse](t, resp); er.Reason != "queue_full" {
		t.Errorf("queue-full reason = %q, want queue_full", er.Reason)
	}
	if got := s.Metrics()["jobs_shed_queue_full"]; got != 1 {
		t.Errorf("jobs_shed_queue_full = %d, want 1", got)
	}
	for _, id := range ids { // drain fast
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if r, err := http.DefaultClient.Do(req); err == nil {
			r.Body.Close()
		}
	}
}

// TestJobTimeout holds the job until its 50 ms deadline passes, so the
// mine always starts on an expired context.
func TestJobTimeout(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	holdJobs(s)
	hard := uploadDB(t, ts.URL, hardDB(t))
	job := decode[JobInfo](t, postJSON(t, ts.URL+"/v1/jobs", jobRequest{
		Dataset:   hard.ID,
		Options:   core.OptionsJSON{MinSup: 4, PFCT: 0.5},
		TimeoutMS: 50,
	}))
	info := waitJob(t, ts.URL, job.ID)
	if info.Status != StatusFailed {
		t.Fatalf("job = %+v, want failed (deadline)", info)
	}
	if !strings.Contains(info.Error, "deadline") {
		t.Errorf("error = %q, want deadline exceeded", info.Error)
	}
}

// TestPanicIsolation feeds the manager a job that panics inside the miner
// (nil database) and checks the worker survives it and the job fails with
// the panic recorded.
func TestPanicIsolation(t *testing.T) {
	mtr := newMetrics()
	m := newManager(Config{Workers: 1, QueueDepth: 4}, newResultCache(4), mtr, quietLogger(), nil)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Drain(ctx)
	}()
	j := &job{
		id: "boom", dataset: "none", db: nil,
		opts:   core.Options{MinSup: 2, PFCT: 0.8},
		status: StatusQueued, submitted: time.Now(),
	}
	m.mu.Lock()
	m.addLocked(j)
	m.mu.Unlock()
	m.run(j)
	info, err := m.Get("boom")
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != StatusFailed || !strings.Contains(info.Error, "panicked") {
		t.Fatalf("job = %+v, want failed with panic recorded", info)
	}
	if mtr.JobsFailed.Value() != 1 {
		t.Errorf("jobs_failed = %d, want 1", mtr.JobsFailed.Value())
	}

	// The pool is still alive: a real job still runs to completion.
	ds, _, err := NewRegistry().Register(uncertain.PaperExample(), false)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := m.Submit(ds, ds.ID, core.OptionsJSON{MinSup: 2, PFCT: 0.8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		info, err := m.Get(ok.ID)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status.Terminal() {
			if info.Status != StatusDone {
				t.Fatalf("post-panic job = %+v, want done", info)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("post-panic job never finished")
}

func TestDrainCancelsQueuedAndStopsIntake(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 4})
	// Hold the first job in the running state until its context is
	// canceled, so the drain below always finds one running job and one
	// queued, however fast the miner is.
	started := holdJobs(s)
	hard := uploadDB(t, ts.URL, hardDB(t))
	running := decode[JobInfo](t, postJSON(t, ts.URL+"/v1/jobs", jobRequest{
		Dataset: hard.ID, Options: core.OptionsJSON{MinSup: 4, PFCT: 0.5},
	}))
	<-started
	queued := decode[JobInfo](t, postJSON(t, ts.URL+"/v1/jobs", jobRequest{
		Dataset: hard.ID, Options: core.OptionsJSON{MinSup: 5, PFCT: 0.5},
	}))

	// Drain with a tight deadline: the running job is context-canceled
	// rather than awaited, the queued job never starts.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain = %v, want deadline exceeded (running job was yanked)", err)
	}
	q, err := s.Jobs().Get(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if q.Status != StatusCanceled {
		t.Errorf("queued job after drain = %+v, want canceled", q)
	}
	r, err := s.Jobs().Get(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Status.Terminal() {
		t.Errorf("running job after drain = %+v, want terminal", r)
	}
	// Intake is closed.
	if _, err := s.Jobs().Submit(mustDataset(t, s), "x", core.OptionsJSON{MinSup: 2, PFCT: 0.8}, 0); err != ErrShuttingDown {
		t.Errorf("post-drain submit error = %v, want ErrShuttingDown", err)
	}
	// Second drain is a no-op and returns promptly.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := s.Drain(ctx2); err != nil {
		t.Errorf("second Drain = %v, want nil", err)
	}
}

func mustDataset(t *testing.T, s *Server) *Dataset {
	t.Helper()
	ds, _, err := s.Registry().Register(uncertain.PaperExample(), false)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" {
		t.Errorf("healthz status = %q, want ok", h.Status)
	}
}

func TestPathLoadWhenEnabled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table2.txt")
	var buf bytes.Buffer
	if err := uncertain.Write(&buf, uncertain.PaperExample()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{Workers: 1, AllowPathLoad: true})
	resp := postJSON(t, ts.URL+"/v1/datasets", map[string]string{"path": path})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("path load status %d, want 201", resp.StatusCode)
	}
	ds := decode[DatasetInfo](t, resp)
	if ds.NumTransactions != 4 {
		t.Errorf("loaded dataset stats wrong: %+v", ds)
	}
}
