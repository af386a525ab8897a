package service

// Distributed-path tests: a coordinator Server wired to real (httptest)
// shard workers. The distributed evaluator is byte-identical to the inline
// sharded arithmetic (see internal/core's three-way identity test), so
// results are compared exactly.

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/service/servicetest"
	"github.com/probdata/pfcim/internal/shard"
	"github.com/probdata/pfcim/internal/uncertain"
)

// startShardWorkers launches n shard workers and returns their base URLs
// plus the servers (so tests can kill them).
func startShardWorkers(t *testing.T, n int) ([]string, []*httptest.Server) {
	t.Helper()
	urls := make([]string, n)
	srvs := make([]*httptest.Server, n)
	for i := range srvs {
		srvs[i] = httptest.NewServer(shard.NewWorker(quietLogger()))
		urls[i] = srvs[i].URL
		t.Cleanup(srvs[i].Close)
	}
	return urls, srvs
}

// waitManagerJob polls the manager until the job is terminal.
func waitManagerJob(t *testing.T, m *Manager, id string, within time.Duration) JobInfo {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		info, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status.Terminal() {
			return info
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal status within %v", id, within)
	return JobInfo{}
}

func TestDistributedMineMatchesInline(t *testing.T) {
	urls, _ := startShardWorkers(t, 2)
	s, _ := testServer(t, Config{
		Workers:         1,
		Shards:          2,
		ShardWorkers:    urls,
		ShardRPCTimeout: 2 * time.Second,
	})

	db := uncertain.PaperExample()
	info, err := s.RegisterDB(db) // placement happens here
	if err != nil {
		t.Fatal(err)
	}
	ds, ok := s.Registry().Get(info.ID)
	if !ok {
		t.Fatal("registered dataset missing")
	}

	job, err := s.Jobs().Submit(ds, ds.ID, core.OptionsJSON{MinSup: 2, PFCT: 0.8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := waitManagerJob(t, s.Jobs(), job.ID, 30*time.Second)
	if done.Status != StatusDone {
		t.Fatalf("distributed job = %+v, want done", done)
	}

	// Byte-identical to mining the same layout in-process.
	inline, err := core.Mine(db, core.Options{MinSup: 2, PFCT: 0.8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := inline.JSON()
	if got, exp := mustJSON(t, done.Result.Itemsets), mustJSON(t, want.Itemsets); string(got) != string(exp) {
		t.Fatalf("distributed result differs from inline sharded:\n%s\n%s", got, exp)
	}
	if got := done.Result.Itemsets[1].Prob; math.Abs(got-0.81) > 1e-9 {
		t.Errorf("Pr_FC(abcd) = %v, want 0.81", got)
	}

	// Resubmission hits the result cache without touching the workers.
	hit, err := s.Jobs().Submit(ds, ds.ID, core.OptionsJSON{MinSup: 2, PFCT: 0.8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.Status != StatusDone {
		t.Fatalf("resubmission should be a cache hit, got %+v", hit)
	}

	// An explicit shard count that differs from the placement layout is a
	// client error on a coordinator.
	if _, err := s.Jobs().Submit(ds, ds.ID, core.OptionsJSON{MinSup: 2, PFCT: 0.8, Shards: 3}, 0); err == nil {
		t.Error("mismatched options.shards must be rejected in distributed mode")
	}

	m := s.Metrics()
	if m["shard_placements"] != 1 {
		t.Errorf("shard_placements = %d, want 1", m["shard_placements"])
	}
	if m["shard_tail_evaluations"] == 0 {
		t.Error("distributed mine should record worker-side tail evaluations")
	}
	// a, b and c share one tidset, so the candidate fan-out fetches the
	// tails of a and d only; the memo serves b and c, the miner evaluates
	// two tails, and no fetched tail goes unused.
	if got := m["shard_tails_wasted"]; got != 0 || done.Result.Stats.TailEvaluations != 2 {
		t.Errorf("shard_tails_wasted = %d with %d tail evaluations, want 0 and 2",
			got, done.Result.Stats.TailEvaluations)
	}
}

// TestCoordinatorMixedTraffic is the distributed deployment's traffic
// contract: a coordinator with two shard workers serves the seeded mixed
// sequence with no non-2xx answer, and every job it accepts ends done.
func TestCoordinatorMixedTraffic(t *testing.T) {
	urls, _ := startShardWorkers(t, 2)
	s, ts := testServer(t, Config{
		Workers:         2,
		Shards:          2,
		ShardWorkers:    urls,
		ShardRPCTimeout: 5 * time.Second,
	})
	servicetest.MixedTraffic(t, ts.URL, 1)
	if s.Metrics()["shard_tail_evaluations"] == 0 {
		t.Error("no tail evaluation went over RPC")
	}
}

// TestDistributedJobFailsOnDeadWorker is the regression test for the
// coordinator hang: when a worker dies mid-job, the job must resolve
// promptly with the structured shard error, not block until the job
// timeout or forever.
func TestDistributedJobFailsOnDeadWorker(t *testing.T) {
	urls, srvs := startShardWorkers(t, 2)
	s, _ := testServer(t, Config{
		Workers:         1,
		Shards:          2,
		ShardWorkers:    urls,
		ShardRPCTimeout: 500 * time.Millisecond,
	})

	info, err := s.RegisterDB(uncertain.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := s.Registry().Get(info.ID)

	// Kill every worker after placement: whichever worker owns a shard, the
	// first remote evaluation now hits a dropped connection.
	for _, srv := range srvs {
		srv.Close()
	}

	job, err := s.Jobs().Submit(ds, ds.ID, core.OptionsJSON{MinSup: 2, PFCT: 0.8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := waitManagerJob(t, s.Jobs(), job.ID, 10*time.Second)
	if done.Status != StatusFailed {
		t.Fatalf("job with dead workers = %+v, want failed", done)
	}
	if !strings.Contains(done.Error, "shard rpc") {
		t.Errorf("error %q should carry the structured shard RPC failure", done.Error)
	}
	if !strings.Contains(done.Error, ds.ID) {
		t.Errorf("error %q should name dataset %s", done.Error, ds.ID)
	}
}

// failsDistributed registers Table II on a coordinator over the given
// workers, mines it, and checks that the job fails with the structured
// shard RPC error naming want and carries no result.
func failsDistributed(t *testing.T, urls []string, want string) {
	t.Helper()
	s, _ := testServer(t, Config{
		Workers:         1,
		Shards:          2,
		ShardWorkers:    urls,
		ShardRPCTimeout: 2 * time.Second,
	})
	info, err := s.RegisterDB(uncertain.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := s.Registry().Get(info.ID)
	job, err := s.Jobs().Submit(ds, ds.ID, core.OptionsJSON{MinSup: 2, PFCT: 0.8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := waitManagerJob(t, s.Jobs(), job.ID, 10*time.Second)
	if done.Status != StatusFailed || done.Result != nil {
		t.Fatalf("job = %+v, want failed with no result", done)
	}
	if !strings.Contains(done.Error, "shard rpc pmf failed") || !strings.Contains(done.Error, want) {
		t.Errorf("error %q should be the structured shard RPC failure naming %q", done.Error, want)
	}
}

// TestDistributedJobFailsOnWorkerDeathMidBatch: workers that send half of
// an eval frame and then drop the connection — a worker dying in the
// middle of a batch — fail the job with the structured shard error, and
// the job carries no result.
func TestDistributedJobFailsOnWorkerDeathMidBatch(t *testing.T) {
	urls := make([]string, 2)
	for i := range urls {
		w := shard.NewWorker(quietLogger())
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/shard/v2/eval" {
				w.ServeHTTP(rw, r)
				return
			}
			rec := httptest.NewRecorder()
			w.ServeHTTP(rec, r)
			frame := rec.Body.Bytes()
			conn, buf, err := http.NewResponseController(rw).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n", len(frame))
			buf.Write(frame[:len(frame)/2])
			buf.Flush()
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	failsDistributed(t, urls, "unexpected EOF")
}

// TestDistributedJobFailsOnOldWorker: a worker that still serves only the
// JSON eval route of the previous protocol answers the binary route with
// a 404, which fails the job with the structured shard error instead of a
// mis-decoded answer.
func TestDistributedJobFailsOnOldWorker(t *testing.T) {
	urls := make([]string, 2)
	for i := range urls {
		mux := http.NewServeMux()
		mux.Handle("POST /shard/v1/datasets", shard.NewWorker(quietLogger()))
		mux.HandleFunc("POST /shard/v1/eval", func(rw http.ResponseWriter, r *http.Request) {
			rw.Header().Set("Content-Type", "application/json")
			fmt.Fprint(rw, `{"pmf":[0.5,0.5],"evals":1,"memo_hits":0}`)
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	failsDistributed(t, urls, "status 404")
}
