package main

// Crash-recovery e2e against the real binary: a daemon with -store-dir is
// SIGKILLed mid-traffic, restarted on the same directory, and must serve
// the pre-crash results as byte-identical cache hits (no re-mining) with
// every lineage resumed at its recorded version, then serve the seeded
// mixed traffic with no error.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/probdata/pfcim/internal/service/servicetest"
)

// jobReply is the slice of a job response these assertions care about; the
// raw Result/SweepResult bytes make the byte-identity checks exact rather
// than decode-and-compare.
type jobReply struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
	Sweep  json.RawMessage `json:"sweep"`
}

func postJSONRaw(t *testing.T, url, body string) (int, jobReply) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr jobReply
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode, jr
}

func waitDone(t *testing.T, base, id string) jobReply {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jr jobReply
		err = json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch jr.Status {
		case "done":
			return jr
		case "failed", "canceled":
			t.Fatalf("job %s: %+v", id, jr)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobReply{}
}

func daemonMetrics(t *testing.T, base string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m := map[string]int64{}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDaemonKillRestartServesPriorResults(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon e2e skipped in -short mode")
	}
	bin := buildBinary(t)
	storeDir := t.TempDir()

	cmd, base := startDaemonBin(t, bin, "-store-dir", storeDir)

	// Register Table II and grow the lineage to version 2.
	resp, err := http.Post(base+"/v1/datasets", "text/plain", strings.NewReader(tableII))
	if err != nil {
		t.Fatal(err)
	}
	var root struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&root); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(base+"/v1/datasets/"+root.ID+"/append", "text/plain",
		strings.NewReader("0 1 2 : 0.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	var v2 struct {
		ID      string `json:"id"`
		Version int    `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v2.Version != 2 {
		t.Fatalf("append: %+v", v2)
	}

	// Mine Example 1.2 on the root version and capture the result bytes.
	jobBody := fmt.Sprintf(`{"dataset":%q,"options":{"min_sup":2,"pfct":0.8}}`, root.ID)
	status, jr := postJSONRaw(t, base+"/v1/jobs", jobBody)
	if status != http.StatusAccepted {
		t.Fatalf("job submit: status %d", status)
	}
	wantJob := waitDone(t, base, jr.ID)

	// A sweep over two points; once done, resubmit it to capture the fully-
	// cached wire form (what the restarted daemon must reproduce exactly).
	sweepBody := fmt.Sprintf(`{"dataset":%q,"options":{"pfct":0.8},"points":[{"min_sup":2},{"min_sup":3}]}`, root.ID)
	status, sr := postJSONRaw(t, base+"/v1/sweeps", sweepBody)
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("sweep submit: status %d", status)
	}
	waitDone(t, base, sr.ID)
	status, wantSweep := postJSONRaw(t, base+"/v1/sweeps", sweepBody)
	if status != http.StatusOK || !wantSweep.Cached {
		t.Fatalf("pre-crash sweep resubmit not fully cached: status %d, %+v", status, wantSweep)
	}

	// SIGKILL mid-traffic: background submitters keep requests in flight
	// while the daemon dies, and the kill waits until they have had
	// killAfter submissions accepted. Errors once the daemon is gone are
	// expected and ignored.
	const killAfter = 20
	var accepted atomic.Int64
	midTraffic := make(chan struct{})
	var signal sync.Once
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := fmt.Sprintf(`{"dataset":%q,"options":{"min_sup":2,"pfct":0.%d1}}`,
					root.ID, 3+(g+i)%5)
				resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					return // connection refused/reset once the daemon is gone
				}
				resp.Body.Close()
				if resp.StatusCode/100 == 2 && accepted.Add(1) >= killAfter {
					signal.Do(func() { close(midTraffic) })
				}
			}
		}(g)
	}
	select {
	case <-midTraffic:
	case <-time.After(30 * time.Second):
		t.Fatalf("only %d submissions accepted before the kill deadline", accepted.Load())
	}
	firstPID := cmd.Process.Pid
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	close(stop)
	wg.Wait()

	// Restart on the same store directory: a new process.
	cmd2, base2 := startDaemonBin(t, bin, "-store-dir", storeDir)
	if cmd2.Process.Pid == firstPID {
		t.Fatalf("restarted daemon has the killed daemon's pid %d", firstPID)
	}

	// The lineage resumed at its recorded version.
	resp, err = http.Get(base2 + "/v1/datasets/" + root.ID + "@latest")
	if err != nil {
		t.Fatal(err)
	}
	var latest struct {
		ID            string `json:"id"`
		Version       int    `json:"version"`
		LatestVersion int    `json:"latest_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&latest); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if latest.ID != v2.ID || latest.Version != 2 || latest.LatestVersion != 2 {
		t.Fatalf("restored @latest = %+v, want version 2 id %s", latest, v2.ID)
	}

	// The pre-crash job answers as a cache hit, terminal at submit, with
	// byte-identical result JSON.
	status, got := postJSONRaw(t, base2+"/v1/jobs", jobBody)
	if status != http.StatusOK || !got.Cached || got.Status != "done" {
		t.Fatalf("restored submit: status %d, %+v, want cached done", status, got)
	}
	if !bytes.Equal(got.Result, wantJob.Result) {
		t.Fatalf("restored result differs:\n%s\nvs\n%s", got.Result, wantJob.Result)
	}

	// The sweep is fully cached too — every point served from the store.
	status, gotSweep := postJSONRaw(t, base2+"/v1/sweeps", sweepBody)
	if status != http.StatusOK || !gotSweep.Cached {
		t.Fatalf("restored sweep: status %d, %+v, want fully cached", status, gotSweep)
	}
	if !bytes.Equal(gotSweep.Sweep, wantSweep.Sweep) {
		t.Fatalf("restored sweep result differs:\n%s\nvs\n%s", gotSweep.Sweep, wantSweep.Sweep)
	}

	// No re-mining happened: everything above came from the store.
	m := daemonMetrics(t, base2)
	if m["mine_wall_ms"] != 0 || m["cache_misses"] != 0 {
		t.Fatalf("restarted daemon re-mined: mine_wall_ms=%d cache_misses=%d",
			m["mine_wall_ms"], m["cache_misses"])
	}
	if m["store_restored_datasets"] != 2 {
		t.Fatalf("store_restored_datasets = %d, want 2", m["store_restored_datasets"])
	}
	if m["store_restored_results"] < 2 {
		t.Fatalf("store_restored_results = %d, want ≥ 2", m["store_restored_results"])
	}

	// Appends resume where the lineage left off.
	resp, err = http.Post(base2+"/v1/datasets/"+root.ID+"/append", "text/plain",
		strings.NewReader("1 2 3 : 0.4\n"))
	if err != nil {
		t.Fatal(err)
	}
	var v3 struct {
		Version int    `json:"version"`
		Lineage string `json:"lineage"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v3); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v3.Version != 3 || v3.Lineage != root.ID {
		t.Fatalf("append after restart: %+v, want version 3 on lineage %s", v3, root.ID)
	}

	// The restarted daemon serves the seeded mixed traffic: only 2xx
	// answers, and every job it accepts ends done.
	servicetest.MixedTraffic(t, base2, 1)
}
