// Package servicetest holds the daemon's mixed-traffic contract, shared by
// the tests that drive a daemon over HTTP: a seeded sequence of requests
// over the eight endpoint classes (fresh submit, cache replay, @latest
// watched mine, sweep, append, job status, trace and metrics) draws only
// 2xx answers, and every job it submits ends done. The sequence is a fixed
// count of operations, not a duration, so a run is the same work on any
// host. The driver speaks only HTTP, so it serves an in-process server and
// a separate daemon process alike.
package servicetest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/probdata/pfcim/internal/gen"
	"github.com/probdata/pfcim/internal/uncertain"
)

const (
	mixClients = 2   // concurrent clients, each with its own seeded sequence
	mixOps     = 100 // operations per client
)

// mixJob is the part of a job answer the contract reads.
type mixJob struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

type mixClient struct {
	t               testing.TB
	base            string
	pinned, lineage string // dataset ids: submits and sweeps; appends and watched mines
	id              int
	rng             *rand.Rand
	fresh, appends  int
	jobs, mined     []string // jobs that ended done; those that ran the miner
	seen            map[string]int
}

// MixedTraffic registers the workload's two datasets on the daemon at base
// and runs mixClients seeded clients against it concurrently. Every failure
// is reported through t, and so is a class the sequence never reached.
func MixedTraffic(t testing.TB, base string, seed int64) {
	t.Helper()
	pinned := mixRegister(t, base, gen.AssignGaussian(gen.MushroomLike(0.005, seed), 0.5, 0.2, seed+1))
	lineage := mixRegister(t, base, uncertain.PaperExample())
	clients := make([]*mixClient, mixClients)
	var wg sync.WaitGroup
	for i := range clients {
		c := &mixClient{t: t, base: base, pinned: pinned, lineage: lineage, id: i,
			rng: rand.New(rand.NewSource(seed + int64(i))), seen: map[string]int{}}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run()
		}()
	}
	wg.Wait()
	seen := map[string]int{}
	for _, c := range clients {
		for class, n := range c.seen {
			seen[class] += n
		}
	}
	for _, class := range []string{"submit", "replay", "watched", "sweep", "append", "status", "trace", "metrics", "done"} {
		if seen[class] == 0 {
			t.Errorf("the sequence never reached %q", class)
		}
	}
	t.Logf("operations per class (done = jobs that ended done): %v", seen)
}

func mixRegister(t testing.TB, base string, db *uncertain.DB) string {
	t.Helper()
	var buf bytes.Buffer
	if err := uncertain.Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	var ds struct {
		ID string `json:"id"`
	}
	if !mixCall(t, http.MethodPost, base+"/v1/datasets", "text/plain", buf.String(), &ds) {
		t.FailNow()
	}
	return ds.ID
}

// mixOptions is the i-th point of a 15-point grid over the pinned dataset;
// fresh submits walk it and replays revisit it.
func mixOptions(i int) map[string]any {
	return map[string]any{"min_sup": 6 + (i/5)%3, "pfct": []float64{0.5, 0.6, 0.7, 0.8, 0.9}[i%5]}
}

func (c *mixClient) run() {
	for op := 0; op < mixOps && !c.t.Failed(); op++ {
		switch roll := c.rng.Intn(100); {
		case roll < 25 || roll < 40 && c.fresh == 0:
			c.job("submit", "/v1/jobs", map[string]any{"dataset": c.pinned, "options": mixOptions(7*c.id + c.fresh)})
			c.fresh++
		case roll < 40: // a point this client submitted before
			c.job("replay", "/v1/jobs", map[string]any{"dataset": c.pinned, "options": mixOptions(7*c.id + c.rng.Intn(c.fresh))})
		case roll < 55:
			opts := map[string]any{"min_sup": 1 + c.rng.Intn(2), "pfct": []float64{0.5, 0.7, 0.9}[c.rng.Intn(3)]}
			c.job("watched", "/v1/jobs", map[string]any{"dataset": c.lineage + "@latest", "options": opts})
		case roll < 65: // a fresh one-transaction batch: never the idempotent duplicate
			c.appends++
			line := fmt.Sprintf("1 2 %d : %.2f\n", 100+1000*c.id+c.appends, float64(50+c.rng.Intn(50))/100)
			c.seen["append"]++
			mixCall(c.t, http.MethodPost, c.base+"/v1/datasets/"+c.lineage+"/append", "text/plain", line, nil)
		case roll < 75:
			pts := make([]map[string]any, 2+c.rng.Intn(2))
			from := c.rng.Intn(8)
			for i := range pts {
				pts[i] = mixOptions(from + i)
			}
			c.job("sweep", "/v1/sweeps", map[string]any{"dataset": c.pinned, "options": map[string]any{"min_sup": 1, "pfct": 0.5}, "points": pts})
		case roll < 85 && len(c.jobs) > 0:
			c.get("status", "/v1/jobs/"+c.jobs[c.rng.Intn(len(c.jobs))])
		case roll < 90 && len(c.mined) > 0:
			c.get("trace", "/v1/jobs/"+c.mined[c.rng.Intn(len(c.mined))]+"/trace")
		default:
			c.get("metrics", "/metrics")
		}
	}
}

func (c *mixClient) get(class, path string) {
	c.seen[class]++
	mixCall(c.t, http.MethodGet, c.base+path, "", "", nil)
}

// job submits body to path and polls the job until it is terminal; it must
// end done. Cache-served jobs never ran the miner and have no trace.
func (c *mixClient) job(class, path string, body any) {
	c.seen[class]++
	blob, err := json.Marshal(body)
	if err != nil {
		c.t.Error(err)
		return
	}
	var j mixJob
	if !mixCall(c.t, http.MethodPost, c.base+path, "application/json", string(blob), &j) {
		return
	}
	deadline := time.Now().Add(time.Minute)
	for j.Status == "queued" || j.Status == "running" {
		if time.Now().After(deadline) {
			c.t.Errorf("job %s still %s after a minute", j.ID, j.Status)
			return
		}
		time.Sleep(5 * time.Millisecond)
		if !mixCall(c.t, http.MethodGet, c.base+"/v1/jobs/"+j.ID, "", "", &j) {
			return
		}
	}
	if j.Status != "done" {
		c.t.Errorf("%s job %s ended %q: %s", path, j.ID, j.Status, j.Error)
		return
	}
	c.seen["done"]++
	c.jobs = append(c.jobs, j.ID)
	if !j.Cached && path == "/v1/jobs" {
		c.mined = append(c.mined, j.ID)
	}
}

// mixCall issues one request and decodes its answer into out when out is
// not nil. A transport error or a non-2xx status fails the test.
func mixCall(t testing.TB, method, url, ctype, body string, out any) bool {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return false
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Errorf("%s %s: %v", method, url, err)
		return false
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
	case resp.StatusCode/100 != 2:
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(blob))
	case out != nil:
		err = json.Unmarshal(blob, out)
	}
	if err != nil {
		t.Errorf("%s %s: %v", method, url, err)
		return false
	}
	return true
}
