package core

import (
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/probdata/pfcim/internal/bitset"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/obs"
	"github.com/probdata/pfcim/internal/shard"
	"github.com/probdata/pfcim/internal/uncertain"
)

// TestShardsOneCollapses: Shards = 1 is the whole-range partition, which is
// definitionally the unsharded computation — it must normalize away, share
// the unsharded canonical key, and return the byte-identical result.
func TestShardsOneCollapses(t *testing.T) {
	db := uncertain.PaperExample()
	base, err := Mine(db, Options{MinSup: 2, PFCT: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Mine(db, Options{MinSup: 2, PFCT: 0.8, Seed: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Itemsets, one.Itemsets) || !reflect.DeepEqual(base.Stats, one.Stats) {
		t.Fatalf("Shards=1 differs from unsharded:\nbase=%+v\none=%+v", base, one)
	}
	k0, err := Options{MinSup: 2, PFCT: 0.8, Seed: 1}.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	k1, err := Options{MinSup: 2, PFCT: 0.8, Seed: 1, Shards: 1}.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if k0 != k1 {
		t.Fatalf("canonical keys differ: %q vs %q", k0, k1)
	}
	k2, _ := (Options{MinSup: 2, PFCT: 0.8, Seed: 1, Shards: 2}).CanonicalKey()
	if k2 == k0 {
		t.Fatal("Shards=2 must have a distinct canonical key")
	}
	if _, err := Mine(db, Options{MinSup: 2, PFCT: 0.8, Shards: -1}); err == nil {
		t.Fatal("negative Shards must be rejected")
	}
}

// countingKernel counts the fan-outs (TailPMFs calls) and the tails they
// carry on their way to a shard kernel, and keeps the largest fan-out.
type countingKernel struct {
	ShardKernel
	fanouts, tails, widest atomic.Int64
}

func (k *countingKernel) TailPMFs(qs []shard.Query, minSup int) ([][][]float64, bool) {
	k.fanouts.Add(1)
	k.tails.Add(int64(len(qs)))
	for n := int64(len(qs)); ; {
		w := k.widest.Load()
		if n <= w || k.widest.CompareAndSwap(w, n) {
			break
		}
	}
	return k.ShardKernel.TailPMFs(qs, minSup)
}

// TestShardedInlineMatchesWorker pins the sharding equivalence: for a fixed
// shard count, mining with the inline partition arithmetic and mining with a
// loopback HTTP shard.Worker produce byte-identical itemsets and stats —
// the same float sequences flow through the same PMFTrunc/ConvolvePMF fold
// on both paths, and the eval frame carries float64 bits. It also pins the
// round-trip count: only tail PMFs cross the wire, one eval RPC per shard
// per fan-out (the candidate items and each sibling chunk batch their
// tails), while clause absence products fold on the coordinator. No
// fan-out carries more than batchChunk queries, so no eval RPC outgrows
// the worker's request cap or the per-attempt timeout; the wide dataset
// has more candidate items, and more siblings per node, than that.
func TestShardedInlineMatchesWorker(t *testing.T) {
	widestPhase := 0
	for _, db := range []*uncertain.DB{uncertain.PaperExample(), shardTestDB(t), wideShardDB(t)} {
		for _, n := range []int{2, 4} {
			opts := Options{MinSup: 2, PFCT: 0.5, Seed: 3, Shards: n, Parallelism: 1}
			inline, err := Mine(db, opts)
			if err != nil {
				t.Fatal(err)
			}
			widestPhase = max(widestPhase, inline.Stats.CandidateItems)

			var evalRPCs atomic.Int64
			worker := shard.NewWorker(nil)
			srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/shard/v2/eval" {
					evalRPCs.Add(1)
				}
				worker.ServeHTTP(rw, r)
			}))
			client, err := shard.NewClient([]string{srv.URL}, time.Second, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := client.Place(context.Background(), "tw", db, n); err != nil {
				t.Fatal(err)
			}
			sess, err := client.Kernel(context.Background(), nil, "tw")
			if err != nil {
				t.Fatal(err)
			}
			remote := opts
			counted := &countingKernel{ShardKernel: sess}
			remote.ShardKernel = counted
			viaHTTP, err := Mine(db, remote)
			if err != nil {
				srv.Close()
				t.Fatal(err)
			}
			fanouts := counted.fanouts.Load()
			if got, want := evalRPCs.Load(), int64(n)*fanouts; got != want {
				t.Fatalf("n=%d: %d eval RPCs per mine, want Shards × fan-outs = %d", n, got, want)
			}
			if w := counted.widest.Load(); w > batchChunk {
				t.Fatalf("n=%d: a fan-out carried %d queries, want at most batchChunk = %d", n, w, batchChunk)
			}
			// Batching sends fewer fan-outs than tails; the session counts
			// every tail the fan-outs carried, and every evaluated tail was
			// among them (fetched = evaluations + wasted, wasted ≥ 0).
			evals := int64(viaHTTP.Stats.TailEvaluations)
			if fanouts >= evals || counted.tails.Load() != sess.FetchedTails() || sess.FetchedTails() < evals {
				t.Fatalf("n=%d: %d fan-outs carried %d tails (session counted %d), for %d evaluations",
					n, fanouts, counted.tails.Load(), sess.FetchedTails(), evals)
			}
			if !reflect.DeepEqual(inline.Itemsets, viaHTTP.Itemsets) {
				t.Fatalf("n=%d: HTTP itemsets differ from inline:\n%+v\n%+v",
					n, inline.Itemsets, viaHTTP.Itemsets)
			}
			if !reflect.DeepEqual(inline.Stats, viaHTTP.Stats) {
				t.Fatalf("n=%d: HTTP stats differ from inline:\n%+v\n%+v",
					n, inline.Stats, viaHTTP.Stats)
			}

			// Tracing must be pure observation on every path: the same
			// itemsets and stats with a tracer installed, over the inline
			// arithmetic, the remote session (whose workers now ship span
			// batches back), and the parallel scheduler.
			traced := opts
			traced.Tracer = obs.New()
			viaTraced, err := Mine(db, traced)
			if err != nil {
				srv.Close()
				t.Fatal(err)
			}
			if !reflect.DeepEqual(inline.Itemsets, viaTraced.Itemsets) ||
				!reflect.DeepEqual(inline.Stats, viaTraced.Stats) {
				t.Fatalf("n=%d: tracer changed the inline result", n)
			}

			tracedRemote := opts
			tracedRemote.Tracer = obs.New()
			tracedRemote.ShardKernel = sess
			sess.SetTracer(tracedRemote.Tracer)
			viaTracedHTTP, err := Mine(db, tracedRemote)
			sess.SetTracer(nil)
			srv.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(inline.Itemsets, viaTracedHTTP.Itemsets) ||
				!reflect.DeepEqual(inline.Stats, viaTracedHTTP.Stats) {
				t.Fatalf("n=%d: tracer changed the HTTP-sharded result", n)
			}
			if wp := tracedRemote.Tracer.Profile().RemoteWorker(srv.URL); wp == nil || wp.Spans == 0 {
				t.Fatalf("n=%d: traced HTTP mine imported no worker spans", n)
			}

			tracedPar := opts
			tracedPar.Parallelism = 4
			tracedPar.Tracer = obs.New()
			viaTracedPar, err := Mine(db, tracedPar)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(inline.Itemsets, viaTracedPar.Itemsets) {
				t.Fatalf("n=%d: tracer changed the parallel sharded result", n)
			}
		}
	}
	if widestPhase <= batchChunk {
		t.Fatalf("widest candidate phase has %d items, want more than batchChunk = %d", widestPhase, batchChunk)
	}
}

// TestShardAbsentFactorOracle checks the coordinator-side Lemma 4.4
// absence fold against a direct oracle: per shard range, the ascending-tid
// product of (1−p_T) over tids\b, stopping once the partial drops below
// zeroClauseEps; then the partials multiplied in shard order, the
// fold ending as soon as the running product goes negligible. Random
// tidsets over near-certain tuples drive every exit: inside a shard, at a
// shard boundary, and the full scan with trailing shards holding no
// differing tid.
func TestShardAbsentFactorOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const nTrans = 48
	trans := make([]uncertain.Transaction, nTrans)
	for i := range trans {
		// A mix of ordinary and near-certain tuples: 1−p reaches 1e-3, so
		// five or six differing tids push a product under 1e-15.
		p := 0.3 + 0.6*rng.Float64()
		if rng.Intn(2) == 0 {
			p = 0.99 + 0.009*rng.Float64()
		}
		trans[i] = uncertain.Transaction{Items: itemset.FromInts(0), Prob: p}
	}
	db, err := uncertain.NewDB(trans)
	if err != nil {
		t.Fatal(err)
	}
	probs := db.Probs()

	for _, n := range []int{2, 3, 4} {
		opts, err := Options{MinSup: 1, PFCT: 0.5, Shards: n}.normalize()
		if err != nil {
			t.Fatal(err)
		}
		m := newMiner(nil, db, opts)
		l := shard.Layout{N: n, Total: nTrans}
		var inShard, atBoundary, trailing int
		for trial := 0; trial < 2000; trial++ {
			// tids ⊇ b; the differing tids sit in a random window of
			// shards so that trailing shards are often empty.
			tids, b := bitset.New(nTrans), bitset.New(nTrans)
			hiShard := 1 + rng.Intn(n)
			_, hiTid := l.Bounds(hiShard - 1)
			density := rng.Float64()
			for tid := 0; tid < nTrans; tid++ {
				if rng.Float64() < 0.7 {
					tids.Set(tid)
					if tid >= hiTid || rng.Float64() > density {
						b.Set(tid)
					}
				}
			}

			// Oracle.
			factors := make([]float64, n)
			inShardExit := false
			for i := 0; i < n; i++ {
				lo, hi := l.Bounds(i)
				f := 1.0
				for tid := lo; tid < hi && f >= zeroClauseEps; tid++ {
					if tids.Test(tid) && !b.Test(tid) {
						f *= 1 - probs[tid]
					}
				}
				factors[i] = f
			}
			want, wantNeg := 1.0, false
			for i, f := range factors {
				want *= f
				if want < zeroClauseEps {
					wantNeg = true
					if f < zeroClauseEps {
						inShardExit = true
					}
					break
				}
				if i == n-1 && hiShard < n {
					trailing++
				}
			}
			switch {
			case inShardExit:
				inShard++
			case wantNeg:
				atBoundary++
			}

			got, gotNeg := m.absentFactor(tids, b)
			if got != want || gotNeg != wantNeg {
				t.Fatalf("n=%d trial %d: absentFactor = %v,%v; oracle %v,%v (partials %v)",
					n, trial, got, gotNeg, want, wantNeg, factors)
			}
		}
		if inShard == 0 || atBoundary == 0 || trailing == 0 {
			t.Fatalf("n=%d: exits covered in-shard %d, boundary %d, trailing-empty %d; want all > 0",
				n, inShard, atBoundary, trailing)
		}
	}
}

// TestShardedVsUnshardedTolerance: sharded mining regroups IEEE sums, so it
// is compared to the single-node result the way the conv-kernel ablation is
// — same itemsets, probabilities within numerical tolerance.
func TestShardedVsUnshardedTolerance(t *testing.T) {
	const eps = 1e-6
	for _, db := range []*uncertain.DB{uncertain.PaperExample(), shardTestDB(t)} {
		base, err := Mine(db, Options{MinSup: 2, PFCT: 0.5, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 3, 4} {
			got, err := Mine(db, Options{MinSup: 2, PFCT: 0.5, Seed: 3, Shards: n})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Itemsets) != len(base.Itemsets) {
				t.Fatalf("n=%d: %d itemsets, unsharded %d", n, len(got.Itemsets), len(base.Itemsets))
			}
			for i := range base.Itemsets {
				b, g := base.Itemsets[i], got.Itemsets[i]
				if !itemset.Equal(b.Items, g.Items) {
					t.Fatalf("n=%d item %d: %v vs %v", n, i, b.Items, g.Items)
				}
				if math.Abs(b.Prob-g.Prob) > eps || math.Abs(b.FreqProb-g.FreqProb) > eps {
					t.Errorf("n=%d %v: prob %v vs %v, freq %v vs %v",
						n, b.Items, b.Prob, g.Prob, b.FreqProb, g.FreqProb)
				}
			}
		}
	}
}

// TestShardedPaperExample: the Table II numbers survive sharding.
func TestShardedPaperExample(t *testing.T) {
	db := uncertain.PaperExample()
	for _, n := range []int{2, 4} {
		res, err := Mine(db, Options{MinSup: 2, PFCT: 0.8, Seed: 1, Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Itemsets) != 2 {
			t.Fatalf("n=%d: got %d results, want 2", n, len(res.Itemsets))
		}
		if got := res.Itemsets[0].Prob; math.Abs(got-0.8754) > 1e-9 {
			t.Errorf("n=%d: Pr_FC(abc) = %v, want 0.8754", n, got)
		}
		if got := res.Itemsets[1].Prob; math.Abs(got-0.81) > 1e-9 {
			t.Errorf("n=%d: Pr_FC(abcd) = %v, want 0.81", n, got)
		}
	}
}

// TestShardedParallelMatchesSerial: the work-stealing scheduler composes
// with sharding — results and scheduling-independent stats are unchanged.
func TestShardedParallelMatchesSerial(t *testing.T) {
	db := shardTestDB(t)
	serial, err := Mine(db, Options{MinSup: 2, PFCT: 0.5, Seed: 3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Mine(db, Options{MinSup: 2, PFCT: 0.5, Seed: 3, Shards: 2, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Itemsets, par.Itemsets) {
		t.Fatalf("parallel sharded results differ:\n%+v\n%+v", serial.Itemsets, par.Itemsets)
	}
}

// shardTestDB is a 12-transaction mixed-density database that splits
// unevenly at 2, 3 and 4 shards.
// wideShardDB has 48 items, each in eight transactions of 192 and paired
// with its neighbour: every item is a candidate, and each node has up to
// 47 siblings.
func wideShardDB(t *testing.T) *uncertain.DB {
	t.Helper()
	const items = 48
	trans := make([]uncertain.Transaction, 4*items)
	for i := range trans {
		trans[i] = uncertain.Transaction{Items: itemset.FromInts(i%items, (i+1)%items), Prob: 0.9}
	}
	db, err := uncertain.NewDB(trans)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func shardTestDB(t *testing.T) *uncertain.DB {
	t.Helper()
	trans := []uncertain.Transaction{
		{Items: itemset.FromInts(0, 1, 2), Prob: 0.9},
		{Items: itemset.FromInts(0, 1), Prob: 0.75},
		{Items: itemset.FromInts(1, 2, 3), Prob: 0.6},
		{Items: itemset.FromInts(0, 2, 3), Prob: 0.85},
		{Items: itemset.FromInts(3), Prob: 0.4},
		{Items: itemset.FromInts(0, 1, 2, 3), Prob: 0.55},
		{Items: itemset.FromInts(1, 3), Prob: 0.95},
		{Items: itemset.FromInts(0, 2), Prob: 0.65},
		{Items: itemset.FromInts(2, 3), Prob: 0.5},
		{Items: itemset.FromInts(0, 1, 3), Prob: 0.7},
		{Items: itemset.FromInts(1, 2), Prob: 0.8},
		{Items: itemset.FromInts(0, 3), Prob: 0.45},
	}
	db, err := uncertain.NewDB(trans)
	if err != nil {
		t.Fatal(err)
	}
	return db
}
