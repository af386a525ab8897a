package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/probdata/pfcim/internal/store"
	"github.com/probdata/pfcim/internal/uncertain"
)

// drainNow shuts a test server's pool down mid-test so a successor can own
// the same store directory (testServer's cleanup will re-Drain harmlessly).
func drainNow(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func submitAndWait(t *testing.T, baseURL, dataset string, minSup int) JobInfo {
	t.Helper()
	resp := postJSON(t, baseURL+"/v1/jobs", map[string]any{
		"dataset": dataset,
		"options": map[string]any{"min_sup": minSup, "pfct": 0.5},
	})
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	return waitJob(t, baseURL, decode[JobInfo](t, resp).ID)
}

// TestStoreRestoreServesCacheHits is the in-process version of the kill-
// restart e2e: a second daemon on the same store directory must list the
// first's datasets at their recorded versions and serve its mined results
// as byte-identical cache hits without re-mining.
func TestStoreRestoreServesCacheHits(t *testing.T) {
	dir := t.TempDir()

	sA, tsA := testServer(t, Config{Workers: 2, StoreDir: dir})
	root := uploadDB(t, tsA.URL, uncertain.PaperExample())
	jobA := submitAndWait(t, tsA.URL, root.ID, 2)
	if jobA.Status != StatusDone || jobA.Cached {
		t.Fatalf("first mine: %+v", jobA)
	}
	// Grow the lineage to version 2 so restore has a chain to resume.
	resp, err := http.Post(tsA.URL+"/v1/datasets/"+root.ID+"/append", "text/plain",
		bytes.NewReader([]byte("0 1 2 3 : 0.9\n")))
	if err != nil {
		t.Fatal(err)
	}
	v2 := decode[DatasetInfo](t, resp)
	if v2.Version != 2 {
		t.Fatalf("append: %+v", v2)
	}
	if got := sA.Metrics(); got["store_datasets_persisted"] != 2 || got["store_results_persisted"] != 1 {
		t.Fatalf("write-through metrics: %+v", got)
	}
	drainNow(t, sA)
	tsA.Close()

	sB, tsB := testServer(t, Config{Workers: 2, StoreDir: dir})
	// The lineage resumed at its recorded version.
	dsResp, err := http.Get(tsB.URL + "/v1/datasets/" + root.ID + "@latest")
	if err != nil {
		t.Fatal(err)
	}
	latest := decode[DatasetInfo](t, dsResp)
	if latest.ID != v2.ID || latest.Version != 2 || latest.LatestVersion != 2 || latest.Lineage != root.ID {
		t.Fatalf("restored @latest: %+v", latest)
	}
	// The prior result serves as a cache hit: 200 (terminal at submit),
	// cached, zero mining wall time, byte-identical result.
	jobB := submitAndWait(t, tsB.URL, root.ID, 2)
	if jobB.Status != StatusDone || !jobB.Cached {
		t.Fatalf("restored submit not a cache hit: %+v", jobB)
	}
	wantRes, _ := json.Marshal(jobA.Result)
	gotRes, _ := json.Marshal(jobB.Result)
	if !bytes.Equal(wantRes, gotRes) {
		t.Fatalf("restored result differs:\n%s\nvs\n%s", gotRes, wantRes)
	}
	m := sB.Metrics()
	if m["cache_hits"] != 1 || m["store_restored_results"] != 1 {
		t.Fatalf("restore metrics: %+v", m)
	}
	if m["mine_wall_ms"] != 0 || m["cache_misses"] != 0 {
		t.Fatalf("restored daemon re-mined: %+v", m)
	}
	if m["store_restored_datasets"] != 2 {
		t.Fatalf("store_restored_datasets = %d, want 2", m["store_restored_datasets"])
	}

	// Appends resume where the lineage left off — version 3, not a reset.
	resp, err = http.Post(tsB.URL+"/v1/datasets/"+root.ID+"/append", "text/plain",
		bytes.NewReader([]byte("1 2 4 : 0.8\n")))
	if err != nil {
		t.Fatal(err)
	}
	v3 := decode[DatasetInfo](t, resp)
	if v3.Version != 3 || v3.Lineage != root.ID {
		t.Fatalf("append after restore: %+v", v3)
	}
}

// TestStoreImmutabilitySurvivesRestart pins that the immutable flag rides
// the lineage record: appends to a frozen lineage still 409 after restart.
func TestStoreImmutabilitySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	sA, tsA := testServer(t, Config{StoreDir: dir})
	var buf bytes.Buffer
	if err := uncertain.Write(&buf, uncertain.PaperExample()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tsA.URL+"/v1/datasets?immutable=true", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	frozen := decode[DatasetInfo](t, resp)
	if !frozen.Immutable {
		t.Fatalf("registration not immutable: %+v", frozen)
	}
	drainNow(t, sA)
	tsA.Close()

	_, tsB := testServer(t, Config{StoreDir: dir})
	resp, err = http.Post(tsB.URL+"/v1/datasets/"+frozen.ID+"/append", "text/plain",
		bytes.NewReader([]byte("0 1 : 0.5\n")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("append to restored immutable lineage: status %d, want 409", resp.StatusCode)
	}
}

// TestStoreReadThroughOutlivesLRU pins that durability is independent of
// the LRU budget: with a one-entry cache, an evicted result still answers
// as a cache hit via store read-through.
func TestStoreReadThroughOutlivesLRU(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2, CacheSize: 1, StoreDir: t.TempDir()})
	ds := uploadDB(t, ts.URL, uncertain.PaperExample())
	first := submitAndWait(t, ts.URL, ds.ID, 2)
	second := submitAndWait(t, ts.URL, ds.ID, 3) // evicts the min_sup=2 entry
	if first.Cached || second.Cached {
		t.Fatalf("fresh mines reported cached: %+v / %+v", first, second)
	}
	again := submitAndWait(t, ts.URL, ds.ID, 2)
	if !again.Cached {
		t.Fatalf("evicted result did not read through: %+v", again)
	}
	w1, _ := json.Marshal(first.Result)
	w2, _ := json.Marshal(again.Result)
	if !bytes.Equal(w1, w2) {
		t.Fatalf("read-through result differs")
	}
	if m := s.Metrics(); m["store_restored_results"] != 1 {
		t.Fatalf("store_restored_results = %d, want 1", m["store_restored_results"])
	}
}

// TestStoreQuarantineDegradesToReMine pins the recovery path: a result
// segment damaged on disk is quarantined at the next startup (counted, not
// fatal), and the affected submission simply re-mines.
func TestStoreQuarantineDegradesToReMine(t *testing.T) {
	dir := t.TempDir()
	sA, tsA := testServer(t, Config{Workers: 2, StoreDir: dir})
	ds := uploadDB(t, tsA.URL, uncertain.PaperExample())
	if j := submitAndWait(t, tsA.URL, ds.ID, 2); j.Status != StatusDone {
		t.Fatalf("mine: %+v", j)
	}
	drainNow(t, sA)
	tsA.Close()

	// Flip one bit in every stored result segment.
	seen := 0
	entries, err := os.ReadDir(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		path := filepath.Join(dir, "results", e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x10
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		seen++
	}
	if seen == 0 {
		t.Fatal("no result segments were persisted")
	}

	sB, tsB := testServer(t, Config{Workers: 2, StoreDir: dir})
	if q := sB.Metrics()["store_quarantined"]; q != int64(seen) {
		t.Fatalf("store_quarantined = %d, want %d", q, seen)
	}
	j := submitAndWait(t, tsB.URL, ds.ID, 2)
	if j.Status != StatusDone || j.Cached {
		t.Fatalf("after quarantine, submission should re-mine: %+v", j)
	}
	if m := sB.Metrics(); m["cache_misses"] != 1 || m["jobs_done"] != 1 {
		t.Fatalf("re-mine metrics: %+v", m)
	}
}

// TestStoreOpenFailure pins that an unusable store directory fails New with
// an error instead of silently serving without durability.
func TestStoreOpenFailure(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{StoreDir: filepath.Join(file, "store"), Logger: quietLogger()})
	if err == nil {
		t.Fatal("New accepted a store dir under a regular file")
	}
}

// syncGate is a store.FS whose files' Sync blocks, once armed, until
// release is closed; the first blocked Sync is announced on entered.
type syncGate struct {
	store.FS
	armed   atomic.Bool
	entered chan struct{} // buffered, one slot
	release chan struct{}
}

func (g *syncGate) Create(path string) (store.File, error) {
	f, err := g.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return gatedFile{f, g}, nil
}

type gatedFile struct {
	store.File
	g *syncGate
}

func (f gatedFile) Sync() error {
	if !f.g.armed.Load() {
		return f.File.Sync()
	}
	select {
	case f.g.entered <- struct{}{}:
	default:
	}
	<-f.g.release
	return f.File.Sync()
}

// TestResultWriteOffManagerLock: a finished job writes its result to the
// store without holding the manager's lock, so while that write's fsync is
// stuck, status GETs and submits still answer. The job reads as running
// until the write returns, then done, with its result in the store.
func TestResultWriteOffManagerLock(t *testing.T) {
	gate := &syncGate{FS: store.OS(), entered: make(chan struct{}, 1), release: make(chan struct{})}
	st, err := store.OpenFS(gate, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	gate.armed.Store(true)
	s, ts := testServer(t, Config{Workers: 1})
	var once sync.Once
	release := func() { once.Do(func() { close(gate.release) }) }
	t.Cleanup(release) // runs before testServer's drain
	// Only results persist: the registry keeps its datasets in memory, so
	// registering writes nothing.
	s.persist = &persister{st: st, log: s.log, mtr: s.metrics}
	s.cache.persist = s.persist

	ds := uploadDB(t, ts.URL, uncertain.PaperExample())
	submit := func(pfct float64) JobInfo {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
			"dataset": ds.ID,
			"options": map[string]any{"min_sup": 2, "pfct": pfct},
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit pfct=%v: status %d", pfct, resp.StatusCode)
		}
		return decode[JobInfo](t, resp)
	}
	get := func(id string) JobInfo {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		return decode[JobInfo](t, resp)
	}

	first := submit(0.5)
	<-gate.entered // the mined result's write is blocked in Sync
	if info := get(first.ID); info.Status != StatusRunning {
		t.Fatalf("job reads %s while its result write is blocked, want running", info.Status)
	}
	second := submit(0.6) // queued behind the blocked write on the one worker
	if info := get(second.ID); info.Status != StatusQueued {
		t.Fatalf("second job reads %s, want queued", info.Status)
	}
	release()
	for _, id := range []string{first.ID, second.ID} {
		if info := waitJob(t, ts.URL, id); info.Status != StatusDone {
			t.Fatalf("job %s ended %s: %s", id, info.Status, info.Error)
		}
	}
	if _, _, results := st.Counts(); results != 2 {
		t.Fatalf("store holds %d results, want 2", results)
	}
}
