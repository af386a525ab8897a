package service

import (
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/poibin"
	"github.com/probdata/pfcim/internal/sweep"
	"github.com/probdata/pfcim/internal/uncertain"
)

// legacyRender is how every job response was rendered before results were
// encoded once and spliced: the whole value through writeJSON's indenting
// json.Encoder. Served bytes must stay equal to it.
func legacyRender(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawCall performs one request and returns the status and the body as
// served.
func rawCall(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(mustJSON(t, body))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, blob
}

// queuedID returns the id of the job a 202 submit response carries.
func queuedID(t *testing.T, body []byte) string {
	t.Helper()
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil || info.ID == "" {
		t.Fatalf("submit response is not a job (%v):\n%s", err, body)
	}
	return info.ID
}

// checkLegacy asserts that got is the legacy rendering of the job's current
// snapshot, and returns that snapshot.
func checkLegacy(t *testing.T, what string, s *Server, got []byte) JobInfo {
	t.Helper()
	var probe JobInfo
	if err := json.Unmarshal(got, &probe); err != nil {
		t.Fatalf("%s: served body is not a job: %v\n%s", what, err, got)
	}
	info, err := s.Jobs().Get(probe.ID)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if want := legacyRender(t, info); !bytes.Equal(got, want) {
		t.Fatalf("%s: served bytes differ from the legacy rendering\n got: %s\nwant: %s", what, got, want)
	}
	return info
}

// TestServedBytesMatchLegacyRendering pins that splicing pre-rendered
// payloads into the JobInfo envelope serves exactly what rendering the
// whole JobInfo did, on every path that serves a job: a fresh GET, a
// cache-hit submit, a sweep, a watched job with a diff, a cancel of a
// finished job, the job listing, and a result read through from the store
// after a restart.
func TestServedBytesMatchLegacyRendering(t *testing.T) {
	dir := t.TempDir()
	sA, tsA := testServer(t, Config{Workers: 2, StoreDir: dir})
	root := uploadDB(t, tsA.URL, uncertain.PaperExample())
	jobReq := jobRequest{Dataset: root.ID, Options: core.OptionsJSON{MinSup: 2, PFCT: 0.8}}

	code, body := rawCall(t, http.MethodPost, tsA.URL+"/v1/jobs", jobReq)
	if code != http.StatusAccepted {
		t.Fatalf("fresh submit: status %d", code)
	}
	fresh := waitJob(t, tsA.URL, queuedID(t, body))
	_, body = rawCall(t, http.MethodGet, tsA.URL+"/v1/jobs/"+fresh.ID, nil)
	if info := checkLegacy(t, "fresh GET", sA, body); info.Result == nil || info.Cached {
		t.Fatalf("fresh GET: %+v, want a mined result", info)
	}
	if !bytes.Contains(body, []byte(`"prob": 0.81,`)) {
		t.Errorf("fresh GET lacks Pr_FC(abcd) = 0.81 as the smoke check greps it:\n%s", body)
	}

	code, body = rawCall(t, http.MethodPost, tsA.URL+"/v1/jobs", jobReq)
	if code != http.StatusOK {
		t.Fatalf("cache-hit submit: status %d", code)
	}
	if info := checkLegacy(t, "cache-hit submit", sA, body); !info.Cached || info.Result == nil {
		t.Fatalf("cache-hit submit: %+v", info)
	}

	sweepReq := sweepRequest{
		Dataset: root.ID,
		Options: core.OptionsJSON{MinSup: 2, PFCT: 0.8},
		Points:  []sweep.PointJSON{{PFCT: 0.5}, {PFCT: 0.8}, {PFCT: 0.9}},
	}
	_, body = rawCall(t, http.MethodPost, tsA.URL+"/v1/sweeps", sweepReq)
	sw := waitJob(t, tsA.URL, queuedID(t, body))
	_, body = rawCall(t, http.MethodGet, tsA.URL+"/v1/jobs/"+sw.ID, nil)
	if info := checkLegacy(t, "sweep GET", sA, body); info.Sweep == nil {
		t.Fatalf("sweep GET: %+v", info)
	}
	code, body = rawCall(t, http.MethodPost, tsA.URL+"/v1/sweeps", sweepReq)
	if info := checkLegacy(t, "cached sweep submit", sA, body); code != http.StatusOK || !info.Cached {
		t.Fatalf("repeat sweep: status %d, %+v", code, info)
	}

	watchReq := jobRequest{Dataset: root.ID + "@latest", Options: core.OptionsJSON{MinSup: 3, PFCT: 0.5}}
	_, body = rawCall(t, http.MethodPost, tsA.URL+"/v1/jobs", watchReq)
	watched := waitJob(t, tsA.URL, queuedID(t, body))
	_, body = rawCall(t, http.MethodGet, tsA.URL+"/v1/jobs/"+watched.ID, nil)
	if info := checkLegacy(t, "watched GET", sA, body); info.Diff == nil || info.Result == nil {
		t.Fatalf("watched GET: %+v, want a result and a diff", info)
	}

	_, body = rawCall(t, http.MethodDelete, tsA.URL+"/v1/jobs/"+fresh.ID, nil)
	checkLegacy(t, "cancel of a finished job", sA, body)

	_, body = rawCall(t, http.MethodGet, tsA.URL+"/v1/jobs", nil)
	list := sA.Jobs().List()
	for i := range list {
		list[i].Result, list[i].Sweep = nil, nil
	}
	if want := legacyRender(t, list); !bytes.Equal(body, want) {
		t.Fatalf("job listing differs from the legacy rendering\n got: %s\nwant: %s", body, want)
	}
	drainNow(t, sA)
	tsA.Close()

	sB, tsB := testServer(t, Config{Workers: 2, StoreDir: dir})
	code, body = rawCall(t, http.MethodPost, tsB.URL+"/v1/jobs", jobReq)
	if code != http.StatusOK {
		t.Fatalf("restored submit: status %d", code)
	}
	restored := checkLegacy(t, "restored cache-hit submit", sB, body)
	_, body = rawCall(t, http.MethodGet, tsB.URL+"/v1/jobs/"+restored.ID, nil)
	checkLegacy(t, "restored GET", sB, body)
	if m := sB.Metrics(); m["store_restored_results"] != 1 || m["cache_misses"] != 0 {
		t.Fatalf("restart re-mined instead of reading through: %+v", m)
	}
}

// TestConcurrentFirstServe renders one fresh result from many requests at
// once: every response must be the same legacy bytes (run under -race, it
// also checks the once-only encode).
func TestConcurrentFirstServe(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	ds := uploadDB(t, ts.URL, uncertain.PaperExample())
	jobReq := jobRequest{Dataset: ds.ID, Options: core.OptionsJSON{MinSup: 2, PFCT: 0.8}}
	id := decode[JobInfo](t, postJSON(t, ts.URL+"/v1/jobs", jobReq)).ID
	// Wait in process, so no response renders the result before the burst.
	waitManagerJob(t, s.Jobs(), id, 10*time.Second)
	info, err := s.Jobs().Get(id)
	if err != nil {
		t.Fatal(err)
	}
	want := legacyRender(t, info)

	blob := mustJSON(t, jobReq)
	const callers = 8
	bodies := make([][]byte, 2*callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(blob))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[callers+i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i, b := range bodies[:callers] {
		if !bytes.Equal(b, want) {
			t.Fatalf("GET %d differs from the legacy rendering\n got: %s\nwant: %s", i, b, want)
		}
	}
	// Each cache-hit submit is its own job; its result is the same bytes.
	for i, b := range bodies[callers:] {
		checkLegacy(t, "concurrent cache-hit submit", s, b)
		if !bytes.Contains(b, want[bytes.Index(want, []byte(`"result": `)):]) {
			t.Fatalf("cache-hit submit %d serves a different result", i)
		}
	}
}

// TestRestoreStoreV1 restores a store written by the daemon before results
// were kept encoded (testdata/store-v1: the paper's example database and
// one result mined at min_sup 2, pfct 0.5, stored as compact json.Marshal
// bytes). The daemon must serve it as a cache hit, byte-identical to the
// legacy rendering and to a fresh mine.
func TestRestoreStoreV1(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "store-v1")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, strings.TrimPrefix(path, src))
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}

	s, ts := testServer(t, Config{Workers: 1, StoreDir: dir})
	ds, err := s.Registry().Resolve("12c3b7011c4987f3")
	if err != nil {
		t.Fatalf("stored dataset not restored: %v", err)
	}
	jobReq := jobRequest{Dataset: ds.ID, Options: core.OptionsJSON{MinSup: 2, PFCT: 0.5}}
	code, body := rawCall(t, http.MethodPost, ts.URL+"/v1/jobs", jobReq)
	if code != http.StatusOK {
		t.Fatalf("submit against the v1 store: status %d\n%s", code, body)
	}
	restored := checkLegacy(t, "v1 store cache hit", s, body)
	if m := s.Metrics(); m["store_restored_results"] != 1 || m["cache_misses"] != 0 {
		t.Fatalf("v1 result not read through: %+v", m)
	}

	_, tsFresh := testServer(t, Config{Workers: 1})
	uploadDB(t, tsFresh.URL, uncertain.PaperExample())
	fresh := submitAndWait(t, tsFresh.URL, ds.ID, 2)
	if got, want := mustJSON(t, restored.Result), mustJSON(t, fresh.Result); !bytes.Equal(got, want) {
		t.Fatalf("v1 stored result differs from a fresh mine\n got: %s\nwant: %s", got, want)
	}
}

// TestCacheKeyConvToken: a mine whose tails go through the truncated
// convolution — Shards ≥ 2, or a dataset of at least poibin.ConvCrossoverN
// rows — is cached and stored under a key carrying the conv=2 token, so
// results written before the merge's absorbing-cell revision miss. Every
// other job, sweep point and watched job keeps the key it had before the
// token: the dataset id, a newline and the canonical options key.
func TestCacheKeyConvToken(t *testing.T) {
	s, _ := testServer(t, Config{Workers: 1})
	reg := s.Registry()
	small, _, err := reg.Register(uncertain.PaperExample(), false)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]uncertain.Transaction, poibin.ConvCrossoverN)
	for i := range rows {
		rows[i] = uncertain.Transaction{Items: itemset.FromInts(i % 2), Prob: 0.5}
	}
	big, _, err := reg.Register(uncertain.MustNewDB(rows), false)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Jobs()
	jobKey := func(ds *Dataset, ref string, oj core.OptionsJSON) string {
		t.Helper()
		info, err := m.Submit(ds, ref, oj, 0)
		if err != nil {
			t.Fatal(err)
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.jobs[info.ID].cacheKey
	}
	sweepKeys := func(ds *Dataset, oj core.OptionsJSON) []string {
		t.Helper()
		info, err := m.SubmitSweep(ds, oj, []sweep.PointJSON{{PFCT: 0.6}, {PFCT: 0.9}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		var keys []string
		for _, sl := range m.jobs[info.ID].slots {
			keys = append(keys, sl.key)
		}
		return keys
	}
	canon := func(oj core.OptionsJSON) string {
		t.Helper()
		opts, err := oj.Options()
		if err != nil {
			t.Fatal(err)
		}
		key, err := opts.CanonicalKey()
		if err != nil {
			t.Fatal(err)
		}
		return key
	}

	// Untokened: the paper's example, unsharded or at one shard, as a job,
	// a watched job and sweep points. The first literal is the key
	// testdata/store-v1 was written under.
	plain := core.OptionsJSON{MinSup: 2, PFCT: 0.5}
	want := "12c3b7011c4987f3\nminsup=2 pfct=0.5 eps=0.1 delta=0.1 seed=0 noch=false nosuper=false nosub=false nobound=false search=DFS maxexact=6 shards=0"
	if got := jobKey(small, small.ID, plain); got != want {
		t.Fatalf("unsharded key changed:\n got %q\nwant %q", got, want)
	}
	one := core.OptionsJSON{MinSup: 2, PFCT: 0.5, Shards: 1}
	if got := jobKey(small, small.ID, one); got != want {
		t.Fatalf("one-shard key changed:\n got %q\nwant %q", got, want)
	}
	if got := jobKey(small, small.ID+"@latest", plain); got != want {
		t.Fatalf("watched key changed:\n got %q\nwant %q", got, want)
	}
	for i, got := range sweepKeys(small, plain) {
		pfct := []float64{0.6, 0.9}[i]
		if want := small.ID + "\n" + canon(core.OptionsJSON{MinSup: 2, PFCT: pfct}); got != want {
			t.Fatalf("sweep point key changed:\n got %q\nwant %q", got, want)
		}
	}

	// Tokened: Shards ≥ 2 on any dataset, and any mine of the big one.
	sharded := core.OptionsJSON{MinSup: 2, PFCT: 0.5, Shards: 2}
	for _, tc := range []struct {
		name string
		ds   *Dataset
		oj   core.OptionsJSON
	}{
		{"sharded", small, sharded},
		{"large", big, core.OptionsJSON{MinSup: 3000, PFCT: 0.5}},
	} {
		untokened := tc.ds.ID + "\n" + canon(tc.oj)
		want := untokened + " conv=2"
		if got := jobKey(tc.ds, tc.ds.ID, tc.oj); got != want {
			t.Fatalf("%s job key:\n got %q\nwant %q", tc.name, got, want)
		}
		if tc.oj.Shards == 0 {
			if got := jobKey(tc.ds, tc.ds.ID+"@latest", tc.oj); got != want {
				t.Fatalf("%s watched key:\n got %q\nwant %q", tc.name, got, want)
			}
		}
		for _, got := range sweepKeys(tc.ds, tc.oj) {
			if !strings.HasSuffix(got, " conv=2") {
				t.Fatalf("%s sweep point key %q has no conv=2 token", tc.name, got)
			}
		}
	}
}

// TestCacheKeySamplerToken: a mine that can reach the Karp–Luby sampler —
// MaxExactClauses < 0, or a dataset of more than MaxExactClauses+1 items —
// is cached and stored under a key carrying the kl=2 token, so results
// sampled in the earlier draw order miss. Every other key is unchanged.
// The item bound is pinned against the miner too: at MaxExactClauses+1
// items no union is sampled, and one item more, or one exact clause
// fewer, samples.
func TestCacheKeySamplerToken(t *testing.T) {
	s, _ := testServer(t, Config{Workers: 1})
	reg, m := s.Registry(), s.Jobs()
	// denseDB has items 0…items−1, each in about half of 80 rows, so every
	// singleton has a clause for every other item.
	denseDB := func(items int) *uncertain.DB {
		rng := rand.New(rand.NewSource(int64(items)))
		rows := make([]uncertain.Transaction, 80)
		for i := range rows {
			its := []int{i % items}
			for e := 0; e < items; e++ {
				if rng.Intn(2) == 0 {
					its = append(its, e)
				}
			}
			rows[i] = uncertain.Transaction{Items: itemset.FromInts(its...), Prob: 0.3 + 0.6*rng.Float64()}
		}
		return uncertain.MustNewDB(rows)
	}
	const exact = 6 // the default MaxExactClauses
	small, big := denseDB(exact+1), denseDB(exact+2)
	base := core.OptionsJSON{MinSup: 8, PFCT: 0.5, DisableBounds: true}
	with := func(f func(*core.OptionsJSON)) core.OptionsJSON {
		oj := base
		f(&oj)
		return oj
	}
	forced := with(func(oj *core.OptionsJSON) { oj.MaxExactClauses = -1 })
	fewer := with(func(oj *core.OptionsJSON) { oj.MaxExactClauses = exact - 1 })
	sharded := with(func(oj *core.OptionsJSON) { oj.Shards = 2 })

	for _, tc := range []struct {
		name    string
		db      *uncertain.DB
		oj      core.OptionsJSON
		token   string
		sampled bool
	}{
		{"MaxExactClauses+1 items", small, base, "", false},
		{"sharded, MaxExactClauses+1 items", small, sharded, " conv=2", false},
		{"forced sampling", small, forced, " kl=2", true},
		{"one exact clause fewer", small, fewer, " kl=2", true},
		{"MaxExactClauses+2 items", big, base, " kl=2", true},
		{"sharded, MaxExactClauses+2 items", big, sharded, " conv=2 kl=2", true},
	} {
		ds, _, err := reg.Register(tc.db, false)
		if err != nil {
			t.Fatal(err)
		}
		opts, err := tc.oj.Options()
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Mine(tc.db, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Stats.Sampled > 0; got != tc.sampled {
			t.Fatalf("%s: %d sampled unions, want sampling %v", tc.name, res.Stats.Sampled, tc.sampled)
		}
		canon, err := opts.CanonicalKey()
		if err != nil {
			t.Fatal(err)
		}
		want := ds.ID + "\n" + canon + tc.token
		info, err := m.Submit(ds, ds.ID, tc.oj, 0)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := m.SubmitSweep(ds, tc.oj, []sweep.PointJSON{{PFCT: 0.5}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		m.mu.Lock()
		job, point := m.jobs[info.ID].cacheKey, m.jobs[sw.ID].slots[0].key
		m.mu.Unlock()
		if job != want || point != want {
			t.Fatalf("%s:\n job key   %q\n sweep key %q\n want      %q", tc.name, job, point, want)
		}
	}
}
