package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/obs"
	"github.com/probdata/pfcim/internal/poibin"
	"github.com/probdata/pfcim/internal/uncertain"
)

func TestLayoutBounds(t *testing.T) {
	for _, tc := range []struct{ n, total int }{
		{1, 4}, {2, 4}, {3, 7}, {4, 4}, {5, 3}, {2, 1},
	} {
		l := Layout{N: tc.n, Total: tc.total}
		prev := 0
		for i := 0; i < tc.n; i++ {
			lo, hi := l.Bounds(i)
			if lo != prev {
				t.Errorf("layout %+v shard %d: lo=%d, want %d (contiguous)", l, i, lo, prev)
			}
			if hi < lo {
				t.Errorf("layout %+v shard %d: hi=%d < lo=%d", l, i, hi, lo)
			}
			if hi != l.End(i) {
				t.Errorf("layout %+v shard %d: End=%d, Bounds hi=%d", l, i, l.End(i), hi)
			}
			prev = hi
		}
		if prev != tc.total {
			t.Errorf("layout %+v: shards cover [0,%d), want [0,%d)", l, prev, tc.total)
		}
		if l.End(tc.n) != tc.total || l.End(tc.n+3) != tc.total {
			t.Errorf("layout %+v: End beyond N must clamp to Total", l)
		}
	}
}

func TestRingDeterministicAndSpreading(t *testing.T) {
	workers := []string{"w1:8081", "w2:8082", "w3:8083"}
	r1, err := NewRing(workers)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing([]string{"w3:8083", "w1:8081", "w2:8082"})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for shard := 0; shard < 64; shard++ {
		a := r1.Pick("mushroom", shard)
		if b := r2.Pick("mushroom", shard); a != b {
			t.Fatalf("ring not order-independent: shard %d → %s vs %s", shard, a, b)
		}
		seen[a]++
	}
	if len(seen) != len(workers) {
		t.Errorf("64 shards landed on %d of %d workers: %v", len(seen), len(workers), seen)
	}
	if _, err := NewRing(nil); err == nil {
		t.Error("empty worker list must be rejected")
	}
}

func testDB(t *testing.T) *uncertain.DB {
	t.Helper()
	db, err := uncertain.NewDB([]uncertain.Transaction{
		{Items: itemset.FromInts(0, 1), Prob: 0.9},
		{Items: itemset.FromInts(0, 1, 2), Prob: 0.7},
		{Items: itemset.FromInts(1, 2), Prob: 0.5},
		{Items: itemset.FromInts(0, 2), Prob: 0.8},
		{Items: itemset.FromInts(0, 1, 2), Prob: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestEvaluatorAgainstDirect: a shard evaluator's tail PMF must equal
// computing it directly on the slice.
func TestEvaluatorAgainstDirect(t *testing.T) {
	db := testDB(t)
	l := Layout{N: 2, Total: db.N()}
	for i := 0; i < l.N; i++ {
		ev, err := NewEvaluator(db, l, i)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := l.Bounds(i)
		x := itemset.FromInts(0)
		ext := itemset.Item(1)

		// Direct: gather probs of {0,1} within [lo,hi) in ascending order.
		var probs []float64
		for tid := lo; tid < hi; tid++ {
			items := db.Transaction(tid).Items
			if items.Contains(0) && items.Contains(1) {
				probs = append(probs, db.Prob(tid))
			}
		}
		var s poibin.Scratch
		want := s.PMFTrunc(probs, 2)
		got := ev.TailPMF(x, ext, 2)
		if len(got) != len(want) {
			t.Fatalf("shard %d: PMF length %d, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("shard %d: PMF[%d] = %v, want %v", i, j, got[j], want[j])
			}
		}
		s.ReleasePMF(want)

		// Memo: a repeated call serves the identical vector and counts a hit.
		if again := ev.TailPMF(x, ext, 2); &again[0] != &got[0] {
			t.Fatalf("shard %d: repeated TailPMF did not hit the memo", i)
		}
		if ev.MemoHits != 1 || ev.Evals != 1 {
			t.Fatalf("shard %d: evals=%d hits=%d, want 1/1", i, ev.Evals, ev.MemoHits)
		}
	}
}

// TestTailPartsMatchesWhole: folding the per-shard PMFs of a full coverage
// reproduces the whole-vector tail within tolerance.
func TestTailPartsMatchesWhole(t *testing.T) {
	probs := []float64{0.9, 0.7, 0.5, 0.8, 0.3, 0.6, 0.2}
	k := 3
	var s poibin.Scratch
	want := s.TailKernel(probs, k, poibin.KernelDP)
	for _, n := range []int{1, 2, 3, 7} {
		l := Layout{N: n, Total: len(probs)}
		parts := make([][]float64, n)
		for i := range parts {
			lo, hi := l.Bounds(i)
			parts[i] = s.PMFTrunc(probs[lo:hi], k)
		}
		got := TailParts(&s, parts, k)
		for _, p := range parts {
			s.ReleasePMF(p)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("n=%d: folded tail %v, whole %v", n, got, want)
		}
	}
}

// TestTailPartsMatchesFullFold: skipping the cells below each merge's
// floor must leave the tail bit-identical to the full left-to-right fold.
// The corpus covers 2–4 shards with summed part lengths below, at and far
// above k, empty parts, tuples with p = 1 and p = 0 (zero cells), and
// single-tuple shards.
func TestTailPartsMatchesFullFold(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var s poibin.Scratch
	fullFold := func(parts [][]float64, k int) float64 {
		acc := parts[0]
		for _, p := range parts[1:] {
			acc = s.ConvolvePMF(acc, p, k, 0)
		}
		return poibin.TailOfPMF(acc, k)
	}
	var below, at, above int
	for trial := 0; trial < 4000; trial++ {
		n := 2 + rng.Intn(3)
		k := 1 + rng.Intn(40)
		var total int
		switch trial % 3 {
		case 0:
			total = rng.Intn(k) // Σ lengths < k: the tail is 0
		case 1:
			total = k
		default:
			total = k + 1 + rng.Intn(8*k)
		}
		probs := make([]float64, total)
		for i := range probs {
			switch r := rng.Intn(10); {
			case r == 0:
				probs[i] = 1
			case r == 1:
				probs[i] = 0
			default:
				probs[i] = rng.Float64()
			}
		}
		l := Layout{N: n, Total: total}
		parts := make([][]float64, n)
		sum := 0
		for i := range parts {
			lo, hi := l.Bounds(i)
			parts[i] = s.PMFTrunc(probs[lo:hi], k)
			sum += len(parts[i]) - 1
		}
		switch {
		case sum < k:
			below++
		case sum == k:
			at++
		default:
			above++
		}
		got := TailParts(&s, parts, k)
		want := fullFold(parts, k)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d n=%d k=%d total=%d: TailParts %v, full fold %v", trial, n, k, total, got, want)
		}
	}
	if below == 0 || at == 0 || above == 0 {
		t.Fatalf("corpus covered Σ(len−1) below k %d, at k %d, above k %d times; want all > 0", below, at, above)
	}
}

// bigTail is Pr[S ≥ k] of Σ Bernoulli(probs) by the absorbing-truncated DP
// in 256-bit arithmetic, with q = 1 − p exact: a reference whose own
// rounding is far below the float64 kernels'.
func bigTail(probs []float64, k int) float64 {
	const prec = 256
	dist := make([]*big.Float, k+1)
	for i := range dist {
		dist[i] = new(big.Float).SetPrec(prec)
	}
	dist[0].SetInt64(1)
	one := new(big.Float).SetPrec(prec).SetInt64(1)
	p, q, t := new(big.Float).SetPrec(prec), new(big.Float).SetPrec(prec), new(big.Float).SetPrec(prec)
	for _, pf := range probs {
		p.SetFloat64(pf)
		q.Sub(one, p)
		dist[k].Add(dist[k], t.Mul(dist[k-1], p))
		for c := k - 1; c >= 1; c-- {
			dist[c].Mul(dist[c], q)
			dist[c].Add(dist[c], t.Mul(dist[c-1], p))
		}
		dist[0].Mul(dist[0], q)
	}
	f, _ := dist[k].Float64()
	return f
}

// TestTailPartsMatchesBigFloat: the sharded fold — per-shard PMFTrunc
// vectors merged by ConvolvePMF, whose absorbing cell sums suffix tails —
// stays within 1e-14 of the exact tail, over 2–4 shards, thresholds up to
// 200 and summed part lengths from k to 6k.
func TestTailPartsMatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var s poibin.Scratch
	worst := 0.0
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(3)
		k := 1 + rng.Intn(200)
		total := k + rng.Intn(5*k+1)
		probs := make([]float64, total)
		for i := range probs {
			if rng.Intn(10) == 0 {
				probs[i] = 1
			} else {
				probs[i] = rng.Float64()
			}
		}
		l := Layout{N: n, Total: total}
		parts := make([][]float64, n)
		for i := range parts {
			lo, hi := l.Bounds(i)
			parts[i] = s.PMFTrunc(probs[lo:hi], k)
		}
		got := TailParts(&s, parts, k)
		for _, p := range parts {
			s.ReleasePMF(p)
		}
		want := bigTail(probs, k)
		if d := math.Abs(got - want); d > 1e-14 {
			t.Fatalf("trial %d n=%d k=%d total=%d: TailParts %v, exact %v (diff %g)", trial, n, k, total, got, want, d)
		} else if d > worst {
			worst = d
		}
	}
	t.Logf("worst |TailParts − exact| = %g", worst)
}

// TestWorkerClientRoundTrip places a dataset on two httptest workers and
// checks that one batched remote evaluation returns exactly the local
// evaluator's values for every query (the frame carries float64 bits).
func TestWorkerClientRoundTrip(t *testing.T) {
	db := testDB(t)
	srv1 := httptest.NewServer(NewWorker(nil))
	defer srv1.Close()
	srv2 := httptest.NewServer(NewWorker(nil))
	defer srv2.Close()

	c, err := NewClient([]string{srv1.URL, srv2.URL}, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const shards = 2
	if err := c.Place(ctx, "t", db, shards); err != nil {
		t.Fatal(err)
	}
	if !c.Placed("t") {
		t.Fatal("placement not recorded")
	}

	sess, err := c.Kernel(ctx, nil, "t")
	if err != nil {
		t.Fatal(err)
	}
	x := itemset.FromInts(0)
	qs := []Query{{Items: x, Ext: 1}, {Ext: 2}, {Items: itemset.FromInts(1, 2), Ext: -1}}
	out, ok := sess.TailPMFs(qs, 2)
	if !ok || len(out) != len(qs) {
		t.Fatalf("TailPMFs ok=%v len=%d", ok, len(out))
	}
	l := Layout{N: shards, Total: db.N()}
	for i := 0; i < shards; i++ {
		ev, err := NewEvaluator(db, l, i)
		if err != nil {
			t.Fatal(err)
		}
		for n, q := range qs {
			want := ev.TailPMF(q.Items, q.Ext, 2)
			got := out[n][i]
			if len(got) != len(want) {
				t.Fatalf("query %d shard %d: wire PMF length %d, want %d", n, i, len(got), len(want))
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("query %d shard %d: wire PMF[%d] = %v, local %v (not bit-exact)", n, i, j, got[j], want[j])
				}
			}
		}
	}

	// Health probes see both workers up.
	up := c.CheckHealth(ctx)
	for addr, ok := range up {
		if !ok {
			t.Errorf("worker %s reported down", addr)
		}
	}
}

// TestSessionFailsJobOnDeadWorker: killing a worker makes the session
// decline (ok = false) and cancel the job context with the structured
// RPCError — the coordinator-side half of the mid-job worker-loss bugfix.
func TestSessionFailsJobOnDeadWorker(t *testing.T) {
	db := testDB(t)
	srv1 := httptest.NewServer(NewWorker(nil))
	defer srv1.Close()
	srv2 := httptest.NewServer(NewWorker(nil))

	c, err := NewClient([]string{srv1.URL, srv2.URL}, 500*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Place(context.Background(), "t", db, 2); err != nil {
		t.Fatal(err)
	}

	jobCtx, fail := context.WithCancelCause(context.Background())
	sess, err := c.Kernel(jobCtx, fail, "t")
	if err != nil {
		t.Fatal(err)
	}
	// Kill the worker that owns shard 0 (consistent hashing may have put
	// both shards on either server).
	c.mu.Lock()
	owner := c.placed["t"].workers[0]
	c.mu.Unlock()
	if owner == srv1.URL {
		srv1.Close()
	} else {
		srv2.Close()
	}

	done := make(chan bool, 1)
	go func() {
		out, ok := sess.TailPMFs([]Query{{Items: itemset.FromInts(0), Ext: 1}}, 2)
		done <- ok && out != nil
	}()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("session reported success with a dead worker")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session hung on dead worker")
	}
	select {
	case <-jobCtx.Done():
	case <-time.After(time.Second):
		t.Fatal("job context not cancelled after shard failure")
	}
	var rpcErr *RPCError
	if cause := context.Cause(jobCtx); !errors.As(cause, &rpcErr) {
		t.Fatalf("job cause = %v, want *RPCError", cause)
	} else if rpcErr.Op != OpPMF {
		t.Errorf("RPCError op = %q, want %q", rpcErr.Op, OpPMF)
	}
}

// TestPlaceHashMismatchSurfaces: the coordinator verifies the worker-echoed
// content hash, so a worker holding a different slice is an error, not a
// silent wrong answer.
func TestRenderSliceHash(t *testing.T) {
	db := testDB(t)
	l := Layout{N: 2, Total: db.N()}
	text, h1, err := RenderSlice(Slice(db, l, 0))
	if err != nil {
		t.Fatal(err)
	}
	if text == "" || len(h1) != 16 {
		t.Fatalf("render: text=%q hash=%q", text, h1)
	}
	_, h2, err := RenderSlice(Slice(db, l, 1))
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Error("different slices must hash differently")
	}
	h3, err := HashSlice(Slice(db, l, 0))
	if err != nil {
		t.Fatal(err)
	}
	if h3 != h1 {
		t.Error("HashSlice disagrees with RenderSlice")
	}
}

// TestEvaluatorMemoNeverChangesValues: memoized and fresh evaluators agree
// bit-for-bit on every quantity.
func TestEvaluatorMemoNeverChangesValues(t *testing.T) {
	db := testDB(t)
	l := Layout{N: 2, Total: db.N()}
	warm, err := NewEvaluator(db, l, 0)
	if err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		x itemset.Itemset
		e itemset.Item
		k int
	}{
		{nil, 0, 2}, {nil, 1, 2}, {itemset.FromInts(0), 1, 2}, {itemset.FromInts(0), 1, 3},
	}
	for round := 0; round < 2; round++ {
		for _, q := range queries {
			fresh, err := NewEvaluator(db, l, 0)
			if err != nil {
				t.Fatal(err)
			}
			a := warm.TailPMF(q.x, q.e, q.k)
			b := fresh.TailPMF(q.x, q.e, q.k)
			if len(a) != len(b) {
				t.Fatalf("round %d %v+%d@%d: lengths differ", round, q.x, q.e, q.k)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("round %d %v+%d@%d: memoized %v != fresh %v", round, q.x, q.e, q.k, a[j], b[j])
				}
			}
		}
	}
}

// TestSessionTracedEvalImportsWorkerSpans: a session with a tracer set must
// return exactly the untraced values (tracing is observability only) while
// the job tracer accumulates one bound-check span per shard eval,
// attributed to the owning worker's address.
func TestSessionTracedEvalImportsWorkerSpans(t *testing.T) {
	db := testDB(t)
	srv1 := httptest.NewServer(NewWorker(nil))
	defer srv1.Close()
	srv2 := httptest.NewServer(NewWorker(nil))
	defer srv2.Close()

	c, err := NewClient([]string{srv1.URL, srv2.URL}, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const shards = 2
	if err := c.Place(ctx, "t", db, shards); err != nil {
		t.Fatal(err)
	}

	sess, err := c.Kernel(ctx, nil, "t")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	sess.SetTracer(tr)

	x := itemset.FromInts(0)
	out, ok := sess.TailPMFs([]Query{{Items: x, Ext: 1}}, 2)
	if !ok {
		t.Fatal("traced TailPMFs failed")
	}
	parts := out[0]

	// Byte-identity against the local evaluator, exactly as the untraced
	// round-trip test checks.
	l := Layout{N: shards, Total: db.N()}
	for i := 0; i < shards; i++ {
		ev, err := NewEvaluator(db, l, i)
		if err != nil {
			t.Fatal(err)
		}
		want := ev.TailPMF(x, 1, 2)
		for j := range want {
			if parts[i][j] != want[j] {
				t.Fatalf("shard %d: traced PMF[%d] = %v, local %v", i, j, parts[i][j], want[j])
			}
		}
	}

	// One tail PMF per shard = 2 remote spans, all bound-check, attributed
	// to the placement's worker addresses (the ring may have put both
	// shards on one worker).
	p := tr.Profile()
	var remoteSpans int64
	seen := map[string]bool{}
	for _, w := range p.Workers {
		if w.Label == "" {
			continue
		}
		seen[w.Label] = true
		remoteSpans += w.Spans
		for _, ph := range w.Phases {
			if ph.Phase != obs.PhaseBoundCheck.String() {
				t.Errorf("remote worker %s recorded phase %s, want %s", w.Label, ph.Phase, obs.PhaseBoundCheck)
			}
		}
		if w.Worker != -1 {
			t.Errorf("remote worker %s has Worker=%d, want -1", w.Label, w.Worker)
		}
	}
	if remoteSpans != shards {
		t.Errorf("remote spans = %d, want %d", remoteSpans, shards)
	}
	owners := map[string]bool{}
	c.mu.Lock()
	for _, addr := range c.placed["t"].workers {
		owners[addr] = true
	}
	c.mu.Unlock()
	if len(seen) != len(owners) {
		t.Errorf("traced workers %v, placement owners %v", seen, owners)
	}
	for addr := range owners {
		if !seen[addr] {
			t.Errorf("placement owner %s missing from trace", addr)
		}
	}
}

// TestTraceIDHeaderReachesWorker: a trace ID installed on the job context
// must arrive as the X-Pfcim-Trace header on every RPC of that job.
func TestTraceIDHeaderReachesWorker(t *testing.T) {
	db := testDB(t)
	var mu sync.Mutex
	var headers []string
	w := NewWorker(nil)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		mu.Lock()
		headers = append(headers, r.Header.Get(TraceHeader))
		mu.Unlock()
		w.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	c, err := NewClient([]string{srv.URL}, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithTraceID(context.Background(), "job-42")
	if got := TraceIDFrom(ctx); got != "job-42" {
		t.Fatalf("TraceIDFrom = %q, want job-42", got)
	}
	if err := c.Place(ctx, "t", db, 1); err != nil {
		t.Fatal(err)
	}
	sess, err := c.Kernel(ctx, nil, "t")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sess.TailPMFs([]Query{{Items: itemset.FromInts(0), Ext: 1}}, 2); !ok {
		t.Fatal("TailPMFs failed")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(headers) < 2 { // 1 place + 1 eval at minimum
		t.Fatalf("saw %d RPCs, want ≥ 2", len(headers))
	}
	for i, h := range headers {
		if h != "job-42" {
			t.Errorf("RPC %d carried trace header %q, want job-42", i, h)
		}
	}
}

// TestWorkerRejectsUnknownOp: the worker serves tail PMFs only. Any other
// op — including "factor", the clause-absence partial older coordinators
// asked for — is a 400 with a JSON error body, never a 200 carrying a zero
// value the coordinator could mistake for a negligible clause.
func TestWorkerRejectsUnknownOp(t *testing.T) {
	db := testDB(t)
	srv := httptest.NewServer(NewWorker(nil))
	defer srv.Close()
	c, err := NewClient([]string{srv.URL}, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Place(context.Background(), "t", db, 1); err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"factor", "", "PMF"} {
		req := EvalRequest{Dataset: "t", Op: op, Queries: []Query{{Items: itemset.FromInts(0), Ext: 1}}, K: 2}
		body, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+evalPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		decErr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("op %q: status %d, want 400", op, resp.StatusCode)
		}
		if decErr != nil || !strings.Contains(e.Error, "unknown op") {
			t.Errorf("op %q: error body %+v (decode %v), want an unknown-op error", op, e, decErr)
		}
		// Through the client the rejection is an error, which a session
		// turns into the job-failing RPCError.
		if _, err := c.eval(context.Background(), srv.URL, req); err == nil ||
			!strings.Contains(err.Error(), "status 400") {
			t.Errorf("op %q: client call error %v, want status 400", op, err)
		}
	}
}

// TestWorkerRejectsOversizedEval: an eval body beyond the fixed cap is
// refused with a structured 413 before it is decoded.
func TestWorkerRejectsOversizedEval(t *testing.T) {
	items := make(itemset.Itemset, maxEvalBody/2)
	body, _ := json.Marshal(EvalRequest{Dataset: "t", Op: OpPMF, Queries: []Query{{Items: items}}, K: 2})
	if len(body) <= maxEvalBody {
		t.Fatalf("test body %d bytes does not exceed the %d-byte cap", len(body), maxEvalBody)
	}
	// Served in-process: over a real connection the server lingers before
	// closing on an unread oversized body, which only slows the test.
	rec := httptest.NewRecorder()
	NewWorker(nil).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, evalPath, bytes.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
	var e errorResponse
	if err := json.NewDecoder(rec.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("error body %+v (decode %v), want a JSON error", e, err)
	}
}

// removalObserver records WorkerRemoved notifications.
type removalObserver struct {
	noopObserver
	mu      sync.Mutex
	removed []string
}

func (o *removalObserver) WorkerRemoved(addr string) {
	o.mu.Lock()
	o.removed = append(o.removed, addr)
	o.mu.Unlock()
}

// TestRemoveWorker: removal shrinks the ring, notifies the observer so the
// metric series retire, keeps future placements off the removed address,
// and refuses to empty the ring.
func TestRemoveWorker(t *testing.T) {
	db := testDB(t)
	srv := httptest.NewServer(NewWorker(nil))
	defer srv.Close()

	o := &removalObserver{}
	c, err := NewClient([]string{srv.URL, "w2:9102", "w3:9103"}, time.Second, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveWorker("nope:1"); err == nil {
		t.Error("removing an unknown worker must fail")
	}
	if err := c.RemoveWorker("w2:9102"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveWorker("w3:9103"); err != nil {
		t.Fatal(err)
	}
	if got := c.Workers(); len(got) != 1 || got[0] != srv.URL {
		t.Fatalf("Workers() = %v, want [%s]", got, srv.URL)
	}
	if err := c.RemoveWorker(srv.URL); err == nil {
		t.Error("removing the last worker must fail")
	}

	o.mu.Lock()
	removed := append([]string(nil), o.removed...)
	o.mu.Unlock()
	if len(removed) != 2 || removed[0] != "w2:9102" || removed[1] != "w3:9103" {
		t.Errorf("observer saw removals %v, want [w2:9102 w3:9103]", removed)
	}

	// New placements route every shard to the one surviving worker, and
	// health checks no longer probe the removed addresses.
	if err := c.Place(context.Background(), "t", db, 3); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	for i, addr := range c.placed["t"].workers {
		if addr != srv.URL {
			t.Errorf("shard %d placed on %s after removal, want %s", i, addr, srv.URL)
		}
	}
	c.mu.Unlock()
	up := c.CheckHealth(context.Background())
	if len(up) != 1 || !up[srv.URL] {
		t.Errorf("CheckHealth = %v, want only %s up", up, srv.URL)
	}
}
