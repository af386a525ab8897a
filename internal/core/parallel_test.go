package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/probdata/pfcim/internal/gen"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/obs"
	"github.com/probdata/pfcim/internal/uncertain"
)

// TestParallelMatchesSerial: the parallel DFS must return the same itemset
// set as the serial run, with probabilities that agree wherever the
// evaluation is deterministic (everything except re-seeded sampling).
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 15; trial++ {
		db := randomDB(rng, 14, 7)
		serial := Options{MinSup: 2, PFCT: 0.5, Seed: 9}
		parallel := serial
		parallel.Parallelism = 4
		a, err := Mine(db, serial)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Mine(db, parallel)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Itemsets) != len(b.Itemsets) {
			t.Fatalf("trial %d: serial %d itemsets, parallel %d", trial, len(a.Itemsets), len(b.Itemsets))
		}
		for i := range a.Itemsets {
			if !itemset.Equal(a.Itemsets[i].Items, b.Itemsets[i].Items) {
				t.Fatalf("trial %d: itemset %d differs: %v vs %v", trial, i, a.Itemsets[i].Items, b.Itemsets[i].Items)
			}
			if math.Abs(a.Itemsets[i].Prob-b.Itemsets[i].Prob) > 0.05 {
				t.Fatalf("trial %d: %v probability drifted: %v vs %v",
					trial, a.Itemsets[i].Items, a.Itemsets[i].Prob, b.Itemsets[i].Prob)
			}
		}
		// Per-node statistics must be preserved by the merge.
		if a.Stats.NodesVisited != b.Stats.NodesVisited {
			t.Fatalf("trial %d: node counts differ: %d vs %d", trial, a.Stats.NodesVisited, b.Stats.NodesVisited)
		}
	}
}

// TestParallelDeterministic: two parallel runs with the same seed produce
// byte-identical results regardless of scheduling.
func TestParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	db := randomDB(rng, 16, 7)
	opts := Options{MinSup: 2, PFCT: 0.5, Seed: 13, Parallelism: 4, MaxExactClauses: -1, DisableBounds: true}
	a, err := Mine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Itemsets) != len(b.Itemsets) {
		t.Fatalf("non-deterministic result size: %d vs %d", len(a.Itemsets), len(b.Itemsets))
	}
	for i := range a.Itemsets {
		if a.Itemsets[i].Prob != b.Itemsets[i].Prob {
			t.Fatalf("non-deterministic estimate for %v: %v vs %v",
				a.Itemsets[i].Items, a.Itemsets[i].Prob, b.Itemsets[i].Prob)
		}
	}
}

// TestParallelismInvariantResults: Mine must return byte-identical
// Result.Itemsets — including Monte-Carlo-sampled probabilities — for every
// Parallelism setting, because each node derives its sampler seed from
// (Seed, itemset), never from scheduling. The workload is a Mushroom-like
// dense database with bounds disabled and exact unions off, so every
// evaluation goes through the sampler.
func TestParallelismInvariantResults(t *testing.T) {
	raw := gen.MushroomLike(0.03, 42)
	db := gen.AssignGaussian(raw, 0.5, 0.5, 43)
	base := Options{
		MinSup:          AbsoluteMinSup(db.N(), 0.2),
		PFCT:            0.3,
		Seed:            7,
		MaxExactClauses: -1,
		DisableBounds:   true,
	}
	ref, err := Mine(db, base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Sampled == 0 {
		t.Fatal("workload has no sampled evaluations; the test would not exercise RNG determinism")
	}
	for _, par := range []int{1, 2, 4, 8} {
		opts := base
		opts.Parallelism = par
		got, err := Mine(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Itemsets) != len(ref.Itemsets) {
			t.Fatalf("par=%d: %d itemsets, want %d", par, len(got.Itemsets), len(ref.Itemsets))
		}
		for i := range ref.Itemsets {
			w, g := ref.Itemsets[i], got.Itemsets[i]
			if !itemset.Equal(w.Items, g.Items) || w.Prob != g.Prob ||
				w.Lower != g.Lower || w.Upper != g.Upper ||
				w.FreqProb != g.FreqProb || w.Method != g.Method {
				t.Fatalf("par=%d: itemset %d differs:\n got %+v\nwant %+v", par, i, g, w)
			}
		}
		// Everything except the scheduling counters and the memo split
		// must merge back to the serial statistics.
		gs, ws := got.Stats, ref.Stats
		gs.TasksSpawned, gs.TasksStolen = 0, 0
		ws.TasksSpawned, ws.TasksStolen = 0, 0
		gs.TailEvaluations, gs.TailMemoHits = gs.TailEvaluations+gs.TailMemoHits, 0
		ws.TailEvaluations, ws.TailMemoHits = ws.TailEvaluations+ws.TailMemoHits, 0
		if gs != ws {
			t.Fatalf("par=%d: stats differ:\n got %+v\nwant %+v", par, gs, ws)
		}
	}
}

// TestMineCancelParallel: canceling a parallel mine mid-run must return
// promptly with the context error and leak no worker goroutines — the
// property pfcimd's DELETE /v1/jobs relies on.
func TestMineCancelParallel(t *testing.T) {
	raw := gen.MushroomLike(0.03, 42)
	db := gen.AssignGaussian(raw, 0.5, 0.5, 43)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The tracer's clock triggers the cancellation: the miner reads it at
	// every enumeration node, so canceling on the cancelAt-th reading lands
	// inside the tree however fast the host mines, and an uncanceled run
	// reads it far more often than that.
	const cancelAt = 2000
	var reads, canceledAt atomic.Int64
	now := func() int64 {
		n := reads.Add(1)
		if n == cancelAt {
			canceledAt.Store(time.Now().UnixNano())
			cancel()
		}
		return n
	}
	opts := Options{
		MinSup:      4, // low support: a deep tree
		PFCT:        0.5,
		Seed:        7,
		Parallelism: 4,
		Tracer:      obs.NewWithClock(0, now),
	}
	before := runtime.NumGoroutine()
	done := make(chan struct{})
	var (
		res *Result
		err error
	)
	go func() {
		defer close(done)
		res, err = MineContext(ctx, db, opts)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("canceled parallel mine did not return")
	}
	if err == nil {
		t.Fatalf("mine returned %d itemsets and no error after %d clock reads (cancel at %d)",
			len(res.Itemsets), reads.Load(), cancelAt)
	}
	if waited := time.Since(time.Unix(0, canceledAt.Load())); waited > 5*time.Second {
		t.Errorf("cancellation took %v; workers should abort at the next node", waited)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("canceled mine should return a nil result, got %d itemsets", len(res.Itemsets))
	}
	// All pool goroutines must exit. Give the runtime a moment to reap.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before cancel, %d after", before, runtime.NumGoroutine())
}

func TestParallelPaperExample(t *testing.T) {
	db := uncertain.PaperExample()
	res, err := Mine(db, Options{MinSup: 2, PFCT: 0.8, Seed: 1, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Itemsets) != 2 {
		t.Fatalf("parallel run on the paper example found %d itemsets", len(res.Itemsets))
	}
	if math.Abs(res.Itemsets[0].Prob-0.8754) > 1e-9 {
		t.Errorf("Pr_FC(abc) = %v", res.Itemsets[0].Prob)
	}
}
