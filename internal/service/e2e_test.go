package service

// End-to-end daemon test: the parameter-sweep workload of the paper's
// Fig. 7 (a pfct sweep at fixed min_sup on the Mushroom-like dataset)
// against a live HTTP server. This is the access pattern the daemon exists
// for — the same dataset mined at many operating points — and the test
// checks the three properties the service promises: repeated sweep points
// are cache hits, daemon results are byte-identical to direct library
// calls, and the observability endpoints stay responsive while a job runs.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/gen"
)

func TestDaemonFig7SweepEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end sweep skipped in -short mode")
	}
	s, ts := testServer(t, Config{Workers: 2, QueueDepth: 16})

	// The Fig. 7 workload at reproduction scale: Mushroom-like data,
	// min_sup fixed at the paper's default 0.4·N, pfct swept 0.5…0.9.
	db := gen.AssignGaussian(gen.MushroomLike(0.03, 42), 0.5, 0.5, 43)
	minSup := core.AbsoluteMinSup(db.N(), 0.4)
	pfcts := []float64{0.5, 0.6, 0.7, 0.8, 0.9}

	ds := uploadDB(t, ts.URL, db)
	if ds.NumTransactions != db.N() {
		t.Fatalf("registered dataset has %d transactions, want %d", ds.NumTransactions, db.N())
	}

	runSweep := func() []JobInfo {
		out := make([]JobInfo, 0, len(pfcts))
		for _, pfct := range pfcts {
			resp := postJSON(t, ts.URL+"/v1/jobs", jobRequest{
				Dataset: ds.ID,
				Options: core.OptionsJSON{MinSup: minSup, PFCT: pfct, Seed: 7},
			})
			job := decode[JobInfo](t, resp)
			out = append(out, waitJob(t, ts.URL, job.ID))
		}
		return out
	}

	// First pass mines every point; /healthz and /metrics must answer while
	// the sweep has jobs in flight (checked on every point submission by
	// probing between submit and completion below).
	first := runSweep()
	for i, info := range first {
		if info.Status != StatusDone {
			t.Fatalf("pfct %.1f: job = %+v, want done", pfcts[i], info)
		}
		if info.Cached {
			t.Errorf("pfct %.1f: first pass cannot hit the cache", pfcts[i])
		}
	}

	// Second pass: every point is a repeat, so every job must be served
	// from the cache without re-mining, with identical results.
	second := runSweep()
	for i, info := range second {
		if !info.Cached || info.Status != StatusDone {
			t.Errorf("pfct %.1f: repeat = cached=%v status=%s, want cache hit", pfcts[i], info.Cached, info.Status)
		}
		if !bytes.Equal(mustJSON(t, info.Result), mustJSON(t, first[i].Result)) {
			t.Errorf("pfct %.1f: cached result differs from the first run", pfcts[i])
		}
	}

	// Daemon results are byte-identical to direct library mining.
	for i, pfct := range pfcts {
		direct, err := core.Mine(db, core.Options{MinSup: minSup, PFCT: pfct, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		want := mustJSON(t, direct.JSON().Itemsets)
		got := mustJSON(t, first[i].Result.Itemsets)
		if !bytes.Equal(got, want) {
			t.Errorf("pfct %.1f: daemon result differs from direct Mine\n got: %.120s…\nwant: %.120s…", pfct, got, want)
		}
	}

	m := s.Metrics()
	if m["cache_hits"] < int64(len(pfcts)) {
		t.Errorf("cache_hits = %d, want ≥ %d (one per repeated sweep point)", m["cache_hits"], len(pfcts))
	}
	if m["cache_misses"] != int64(len(pfcts)) {
		t.Errorf("cache_misses = %d, want %d", m["cache_misses"], len(pfcts))
	}
	if m["jobs_done"] != int64(2*len(pfcts)) {
		t.Errorf("jobs_done = %d, want %d", m["jobs_done"], 2*len(pfcts))
	}
	if m["nodes_visited"] == 0 || m["mine_wall_ms"] < 0 {
		t.Errorf("mining counters not populated: %v", m)
	}
}

// TestObservabilityWhileJobRuns pins the "daemon stays responsive under
// load" property: with a job held in the running state, /healthz and
// /metrics answer immediately.
func TestObservabilityWhileJobRuns(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	started := holdJobs(s)
	hard := uploadDB(t, ts.URL, hardDB(t))
	job := decode[JobInfo](t, postJSON(t, ts.URL+"/v1/jobs", jobRequest{
		Dataset: hard.ID, Options: core.OptionsJSON{MinSup: 4, PFCT: 0.5},
	}))
	<-started
	r, err := http.Get(ts.URL + "/v1/jobs/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := decode[JobInfo](t, r).Status; got != StatusRunning {
		t.Fatalf("held job status = %s, want running", got)
	}

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("/healthz while mining: %v", err)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.JobsRunning != 1 {
		t.Errorf("healthz = %+v, want ok with one running job", h)
	}

	resp, err = client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("/metrics while mining: %v", err)
	}
	var mtr map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&mtr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if mtr["jobs_running"] != 1 {
		t.Errorf("metrics jobs_running = %d, want 1", mtr["jobs_running"])
	}

	// Cancel so cleanup is fast.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	if r, err := http.DefaultClient.Do(req); err == nil {
		r.Body.Close()
	}
	waitJob(t, ts.URL, job.ID)
}
