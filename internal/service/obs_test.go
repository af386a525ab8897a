package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/obs"
	"github.com/probdata/pfcim/internal/uncertain"
)

// syncBuffer is a mutex-guarded buffer safe for the concurrent slog writes
// of the daemon's worker pool.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// getWithAccept fetches url with the given Accept header.
func getWithAccept(t *testing.T, url, accept string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestMetricsContentNegotiation: /metrics serves the historical JSON by
// default and the Prometheus text exposition when the client asks for
// text/plain; an explicit application/json preference wins.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	ds := uploadDB(t, ts.URL, uncertain.PaperExample())
	job := decode[JobInfo](t, postJSON(t, ts.URL+"/v1/jobs", jobRequest{
		Dataset: ds.ID,
		Options: core.OptionsJSON{MinSup: 2, PFCT: 0.8},
	}))
	waitJob(t, ts.URL, job.ID)

	resp, body := getWithAccept(t, ts.URL+"/metrics", "")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("default view content type = %q, want JSON", ct)
	}
	if !strings.Contains(body, `"jobs_done"`) {
		t.Errorf("JSON view missing jobs_done: %s", body)
	}

	resp, body = getWithAccept(t, ts.URL+"/metrics", "text/plain;version=0.0.4")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prometheus view content type = %q, want text/plain", ct)
	}
	for _, want := range []string{
		"# TYPE pfcimd_jobs_done_total counter",
		"# TYPE pfcimd_jobs_running gauge",
		"# TYPE pfcimd_job_wall_seconds histogram",
		`pfcimd_job_wall_seconds_bucket{le="+Inf"} 1`,
		"pfcimd_job_queue_wait_seconds_count 1",
		"pfcimd_nodes_visited_total",
		"pfcimd_tasks_spawned_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}

	if _, body = getWithAccept(t, ts.URL+"/metrics", "application/json, text/plain"); !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Errorf("explicit application/json preference must win, got: %.80s", body)
	}
}

// TestPrometheusExpositionSyntax: every sample line must parse as
// `name{labels} value` with a preceding # TYPE, and counters must carry the
// _total suffix — the contract the CI smoke check scrapes for. The server
// runs as a coordinator so the distributed-path series — the shard RPC
// histogram, the retry counter, and the labeled per-worker up gauge — are
// in the scrape and subject to the same grammar.
func TestPrometheusExpositionSyntax(t *testing.T) {
	urls, _ := startShardWorkers(t, 2)
	_, ts := testServer(t, Config{Workers: 1, Shards: 2, ShardWorkers: urls,
		ShardHealthInterval: 50 * time.Millisecond})
	ds := uploadDB(t, ts.URL, uncertain.PaperExample())
	job := decode[JobInfo](t, postJSON(t, ts.URL+"/v1/jobs", jobRequest{
		Dataset: ds.ID,
		Options: core.OptionsJSON{MinSup: 2, PFCT: 0.8},
	}))
	waitJob(t, ts.URL, job.ID)
	// A watched job populates the labeled per-stream round series, putting
	// them under the same grammar check.
	// Distinct options so the submit misses the cache entry the pinned job
	// just created — a cache-served watched job runs no round.
	watched := decode[JobInfo](t, postJSON(t, ts.URL+"/v1/jobs", jobRequest{
		Dataset: ds.ID + "@latest",
		Options: core.OptionsJSON{MinSup: 2, PFCT: 0.7},
	}))
	waitJob(t, ts.URL, watched.ID)

	// The worker_up gauge appears once the startup health probe lands.
	var body string
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body = getWithAccept(t, ts.URL+"/metrics", "text/plain")
		if strings.Contains(body, "pfcimd_shard_worker_up{worker=") || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, want := range []string{
		"# TYPE pfcimd_shard_rpc_seconds histogram",
		"pfcimd_shard_retries_total",
		"pfcimd_shard_tail_evaluations_total",
		"pfcimd_shard_placements_total 1",
		`pfcimd_shard_worker_up{worker="` + urls[0] + `"} 1`,
		`pfcimd_shard_worker_up{worker="` + urls[1] + `"} 1`,
		`pfcimd_shard_worker_last_probe_age_seconds{worker="` + urls[0] + `"}`,
		"# TYPE pfcimd_watch_rounds_total counter",
		"pfcimd_watch_round_seconds_bucket",
		"pfcimd_watch_reuse_ratio_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	typed := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			t.Fatalf("sample %q has unparseable value %q", m[1], m[3])
		}
		name := m[1]
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if typed[strings.TrimSuffix(name, suf)] == "histogram" {
				base = strings.TrimSuffix(name, suf)
			}
		}
		kind, ok := typed[base]
		if !ok {
			t.Errorf("sample %q has no preceding # TYPE", name)
			continue
		}
		if kind == "counter" && !strings.HasSuffix(base, "_total") {
			t.Errorf("counter %q lacks the _total suffix", base)
		}
		if kind == "counter" || kind == "histogram" {
			if v, err := strconv.ParseFloat(m[3], 64); err != nil || v < 0 {
				t.Errorf("monotonic metric %q has value %q", name, m[3])
			}
		}
	}
	if typed["pfcimd_jobs_done_total"] != "counter" {
		t.Errorf("pfcimd_jobs_done_total typed %q, want counter", typed["pfcimd_jobs_done_total"])
	}
}

// TestFullStatsExported: metrics.go mirrors every core.Stats field; this
// pins the mirror. It reflects over core.Stats, mines one job, and requires
// each field to appear in the JSON /metrics view — under its snake_case
// name — with exactly that job's value.
func TestFullStatsExported(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	db := hardDB(t)
	ds := uploadDB(t, ts.URL, db)
	job := decode[JobInfo](t, postJSON(t, ts.URL+"/v1/jobs", jobRequest{
		Dataset: ds.ID,
		Options: core.OptionsJSON{MinSup: core.AbsoluteMinSup(db.N(), 0.4), PFCT: 0.3, Parallelism: 2},
	}))
	info := waitJob(t, ts.URL, job.ID)
	if info.Status != StatusDone {
		t.Fatalf("job = %+v, want done", info)
	}
	_, body := getWithAccept(t, ts.URL+"/metrics", "application/json")
	var snap map[string]int64
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	stats := reflect.ValueOf(info.Result.Stats)
	for i := 0; i < stats.NumField(); i++ {
		field := stats.Type().Field(i).Name
		name := snakeCase(field)
		got, ok := snap[name]
		if !ok {
			t.Errorf("core.Stats.%s has no %q metric", field, name)
			continue
		}
		if want := stats.Field(i).Int(); got != want {
			t.Errorf("metric %q = %d, want %d (the job's %s)", name, got, want, field)
		}
	}
	if snap["nodes_visited"] == 0 || snap["evaluated"] == 0 {
		t.Error("workload produced no mining work; test is vacuous")
	}
}

// snakeCase converts a Go field name to its metric name: NodesVisited →
// nodes_visited, CHPruned → ch_pruned.
func snakeCase(s string) string {
	var b strings.Builder
	for i, r := range s {
		upper := unicode.IsUpper(r)
		if upper && i > 0 {
			prevLower := unicode.IsLower(rune(s[i-1]))
			nextLower := i+1 < len(s) && unicode.IsLower(rune(s[i+1]))
			if prevLower || nextLower {
				b.WriteByte('_')
			}
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}

// TestJobTraceEndpoint: a finished job serves its phase profile; queued or
// cache-hit jobs do not.
func TestJobTraceEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	ds := uploadDB(t, ts.URL, uncertain.PaperExample())
	job := decode[JobInfo](t, postJSON(t, ts.URL+"/v1/jobs", jobRequest{
		Dataset: ds.ID,
		Options: core.OptionsJSON{MinSup: 2, PFCT: 0.8},
	}))
	info := waitJob(t, ts.URL, job.ID)
	if info.Status != StatusDone {
		t.Fatalf("job = %+v, want done", info)
	}
	if info.QueueWaitMillis < 0 {
		t.Errorf("queue_wait_ms = %d, want >= 0", info.QueueWaitMillis)
	}

	resp, body := getWithAccept(t, ts.URL+"/v1/jobs/"+job.ID+"/trace", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d, body %s", resp.StatusCode, body)
	}
	var p obs.Profile
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("trace body is not a profile: %v\n%s", err, body)
	}
	if p.TotalNS <= 0 {
		t.Errorf("profile total_ns = %d, want > 0", p.TotalNS)
	}
	if p.PhaseWallNS("expand") == 0 && p.PhaseWallNS("bound-check") == 0 {
		t.Errorf("profile attributes no phase time: %+v", p.Phases)
	}

	// A cache hit never ran the miner: no trace.
	hit := decode[JobInfo](t, postJSON(t, ts.URL+"/v1/jobs", jobRequest{
		Dataset: ds.ID,
		Options: core.OptionsJSON{MinSup: 2, PFCT: 0.8},
	}))
	if !hit.Cached {
		t.Fatalf("second submission should hit the cache: %+v", hit)
	}
	if resp, _ := getWithAccept(t, ts.URL+"/v1/jobs/"+hit.ID+"/trace", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("cache-hit trace status = %d, want 404", resp.StatusCode)
	}

	if resp, _ := getWithAccept(t, ts.URL+"/v1/jobs/nope/trace", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace status = %d, want 404", resp.StatusCode)
	}
}

// TestJobTracingDisabled: with DisableJobTracing the trace endpoint reports
// 404 and jobs still complete normally.
func TestJobTracingDisabled(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, DisableJobTracing: true})
	ds := uploadDB(t, ts.URL, uncertain.PaperExample())
	job := decode[JobInfo](t, postJSON(t, ts.URL+"/v1/jobs", jobRequest{
		Dataset: ds.ID,
		Options: core.OptionsJSON{MinSup: 2, PFCT: 0.8},
	}))
	info := waitJob(t, ts.URL, job.ID)
	if info.Status != StatusDone {
		t.Fatalf("job = %+v, want done", info)
	}
	if resp, _ := getWithAccept(t, ts.URL+"/v1/jobs/"+job.ID+"/trace", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace status = %d, want 404 when tracing is disabled", resp.StatusCode)
	}
}

// TestSlowJobWarning: a job slower than the threshold logs a warning and
// bumps the slow_jobs counter.
func TestSlowJobWarning(t *testing.T) {
	var logBuf syncBuffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	s, ts := testServer(t, Config{Workers: 1, SlowJobThreshold: time.Nanosecond, Logger: logger})
	ds := uploadDB(t, ts.URL, uncertain.PaperExample())
	job := decode[JobInfo](t, postJSON(t, ts.URL+"/v1/jobs", jobRequest{
		Dataset: ds.ID,
		Options: core.OptionsJSON{MinSup: 2, PFCT: 0.8},
	}))
	waitJob(t, ts.URL, job.ID)
	if got := s.Metrics()["slow_jobs"]; got != 1 {
		t.Errorf("slow_jobs = %d, want 1", got)
	}
	if !strings.Contains(logBuf.String(), "slow job") {
		t.Errorf("no slow-job warning logged:\n%s", logBuf.String())
	}
}

// TestMetricsConcurrent hammers the histograms, the per-job tracers, and
// the /metrics renderers from parallel jobs and scrapers; run with -race
// this is the data-race gate for the observability layer.
func TestMetricsConcurrent(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 4, QueueDepth: 256, CacheSize: -1})
	ds := uploadDB(t, ts.URL, uncertain.PaperExample())

	const submitters, jobsEach = 4, 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Scrapers race the jobs: both views plus job traces.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				getWithAccept(t, ts.URL+"/metrics", "text/plain")
				getWithAccept(t, ts.URL+"/metrics", "")
			}
		}()
	}
	ids := make(chan string, submitters*jobsEach)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < jobsEach; i++ {
				job := decode[JobInfo](t, postJSON(t, ts.URL+"/v1/jobs", jobRequest{
					Dataset: ds.ID,
					// Distinct seeds defeat the canonical key so every job mines.
					Options: core.OptionsJSON{MinSup: 2, PFCT: 0.8, Seed: int64(g*jobsEach + i + 1), Parallelism: 2},
				}))
				ids <- job.ID
			}
		}(g)
	}
	for n := 0; n < submitters*jobsEach; n++ {
		id := <-ids
		info := waitJob(t, ts.URL, id)
		if info.Status != StatusDone {
			t.Errorf("job %s = %s (%s)", id, info.Status, info.Error)
		}
		if resp, body := getWithAccept(t, ts.URL+"/v1/jobs/"+id+"/trace", ""); resp.StatusCode != http.StatusOK {
			t.Errorf("trace %s status = %d: %s", id, resp.StatusCode, body)
		}
	}
	close(stop)
	wg.Wait()

	_, body := getWithAccept(t, ts.URL+"/metrics", "text/plain")
	want := fmt.Sprintf("pfcimd_job_wall_seconds_count %d", submitters*jobsEach)
	if !strings.Contains(body, want) {
		t.Errorf("exposition missing %q after %d jobs", want, submitters*jobsEach)
	}
}
