package service

import (
	"bytes"
	"math/rand"
	"net/http"
	"testing"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/crosscheck"
)

// TestCacheHitMatchesFreshMine is the daemon leg of the crosscheck
// determinism invariant: for shaped random databases, a cache hit must be
// byte-identical to the miss that populated it, and both to a direct
// core.Mine outside the daemon — the cache key (dataset hash, canonical
// options) must never conflate two different answers.
func TestCacheHitMatchesFreshMine(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	for i, shape := range crosscheck.Shapes {
		seed := int64(9000 + i)
		db := crosscheck.GenDB(shape, rand.New(rand.NewSource(seed)), 12, 6)
		ds, _, err := s.Registry().Register(db, false)
		if err != nil {
			t.Fatal(err)
		}
		optsJSON := core.OptionsJSON{MinSup: 1 + int(seed)%2, PFCT: 0.3, Seed: seed}

		resp := postJSON(t, ts.URL+"/v1/jobs", jobRequest{Dataset: ds.ID, Options: optsJSON})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s seed %d: submit status %d, want 202", shape, seed, resp.StatusCode)
		}
		job := decode[JobInfo](t, resp)
		miss := waitJob(t, ts.URL, job.ID)
		if miss.Status != StatusDone || miss.Cached {
			t.Fatalf("%s seed %d: first run = %+v, want uncached done", shape, seed, miss)
		}

		// Different execution knobs, same canonical key: must hit the cache.
		hitJSON := optsJSON
		hitJSON.Parallelism = 4
		hitJSON.Tidsets = "compressed"
		resp = postJSON(t, ts.URL+"/v1/jobs", jobRequest{Dataset: ds.ID, Options: hitJSON})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s seed %d: cached submit status %d, want 200", shape, seed, resp.StatusCode)
		}
		hit := decode[JobInfo](t, resp)
		if !hit.Cached || hit.Status != StatusDone {
			t.Fatalf("%s seed %d: expected a cache hit, got %+v", shape, seed, hit)
		}
		if !bytes.Equal(mustJSON(t, hit.Result), mustJSON(t, miss.Result)) {
			t.Errorf("%s seed %d: cache hit differs from the miss that stored it", shape, seed)
		}

		// And both match a direct in-process mine of the same canonical options.
		o, err := optsJSON.Options()
		if err != nil {
			t.Fatal(err)
		}
		direct, err := core.Mine(db, o)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, hit.Result.Itemsets), mustJSON(t, direct.JSON().Itemsets)) {
			t.Errorf("%s seed %d: daemon result differs from direct core.Mine", shape, seed)
		}
	}
}
