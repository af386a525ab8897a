package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/probdata/pfcim/internal/obs"
	"github.com/probdata/pfcim/internal/uncertain"
)

// traceIDKey carries the job's trace ID through the RPC context so every
// hop stamps the X-Pfcim-Trace header without widening call signatures.
type traceIDKey struct{}

// WithTraceID returns a context whose shard RPCs carry id in the
// X-Pfcim-Trace header. The coordinator wraps the job context once; every
// eval and placement RPC of that job then correlates in worker logs.
func WithTraceID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceIDFrom extracts the trace ID installed by WithTraceID ("" if none).
func TraceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// RPCError is the structured failure of one shard RPC: which worker, which
// dataset slice, which operation. It is installed as the job context's
// cancellation cause, so a coordinator job that loses a worker mid-mine
// fails with this error instead of hanging or reporting a bare
// "context canceled".
type RPCError struct {
	Worker  string
	Dataset string
	Shard   int
	Op      string
	Err     error
}

func (e *RPCError) Error() string {
	return fmt.Sprintf("shard rpc %s failed on worker %s (dataset %s, shard %d): %v",
		e.Op, e.Worker, e.Dataset, e.Shard, e.Err)
}

func (e *RPCError) Unwrap() error { return e.Err }

// Observer receives the client's operational signals; the service layer
// maps them onto Prometheus metrics. All methods must be safe for
// concurrent use. A nil Observer is replaced by a no-op.
type Observer interface {
	ShardRPC(d time.Duration)                 // one completed RPC attempt (any outcome)
	ShardRetry()                              // an RPC attempt is being retried
	WorkerUp(addr string, up bool)            // health-check verdict for one worker
	WorkerRemoved(addr string)                // worker taken out of the ring
	ShardEvalStats(evals, memoHits int64)     // worker-side tail accounting deltas
	PlacementDone(dataset string, shards int) // a dataset finished placement
}

type noopObserver struct{}

func (noopObserver) ShardRPC(time.Duration)      {}
func (noopObserver) ShardRetry()                 {}
func (noopObserver) WorkerUp(string, bool)       {}
func (noopObserver) WorkerRemoved(string)        {}
func (noopObserver) ShardEvalStats(int64, int64) {}
func (noopObserver) PlacementDone(string, int)   {}

// Client is the coordinator side of the shard protocol: it places range
// partitions on workers via the consistent-hash ring and evaluates
// per-shard tail PMFs over RPC with a per-call timeout and one bounded
// retry.
type Client struct {
	hc      *http.Client
	timeout time.Duration
	obs     Observer

	mu      sync.Mutex
	workers []string
	ring    *Ring
	placed  map[string]placement
}

type placement struct {
	layout  Layout
	workers []string // shard index → worker address
}

// NewClient builds a client over the given worker addresses (host:port or
// full URLs). timeout bounds each RPC attempt; 0 means 5s.
func NewClient(workers []string, timeout time.Duration, obs Observer) (*Client, error) {
	ring, err := NewRing(workers)
	if err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	if obs == nil {
		obs = noopObserver{}
	}
	return &Client{
		workers: append([]string(nil), workers...),
		ring:    ring,
		hc:      &http.Client{},
		timeout: timeout,
		obs:     obs,
		placed:  map[string]placement{},
	}, nil
}

// Workers returns the current worker addresses (removed workers excluded).
func (c *Client) Workers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.workers...)
}

// RemoveWorker takes addr out of the ring: future placements no longer
// route to it, health probes stop covering it, and the observer is told so
// metric series for the address are retired rather than frozen at their
// last value. Existing placements keep their recorded shard→worker map —
// jobs over them fail with a structured RPCError and re-registering the
// dataset re-places it over the shrunken ring. The last worker cannot be
// removed (an empty ring cannot place anything).
func (c *Client) RemoveWorker(addr string) error {
	c.mu.Lock()
	idx := -1
	for i, w := range c.workers {
		if w == addr {
			idx = i
			break
		}
	}
	if idx < 0 {
		c.mu.Unlock()
		return fmt.Errorf("shard: worker %s is not in the ring", addr)
	}
	if len(c.workers) == 1 {
		c.mu.Unlock()
		return fmt.Errorf("shard: cannot remove the last worker %s", addr)
	}
	rest := make([]string, 0, len(c.workers)-1)
	rest = append(rest, c.workers[:idx]...)
	rest = append(rest, c.workers[idx+1:]...)
	ring, err := NewRing(rest)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.workers, c.ring = rest, ring
	c.mu.Unlock()
	c.obs.WorkerRemoved(addr)
	return nil
}

// Place partitions db into shards range slices, ships each to the worker
// the ring assigns it, and verifies the worker's content hash against the
// coordinator's own rendering. Placement is idempotent — re-registering a
// dataset re-ships the identical slices.
func (c *Client) Place(ctx context.Context, dataset string, db *uncertain.DB, shards int) error {
	if shards < 1 {
		return fmt.Errorf("shard: placement needs ≥ 1 shard, got %d", shards)
	}
	l := Layout{N: shards, Total: db.N()}
	pl := placement{layout: l, workers: make([]string, shards)}
	c.mu.Lock()
	ring := c.ring
	c.mu.Unlock()
	for i := 0; i < shards; i++ {
		addr := ring.Pick(dataset, i)
		pl.workers[i] = addr
		text, hash, err := RenderSlice(Slice(db, l, i))
		if err != nil {
			return fmt.Errorf("shard: rendering slice %d: %w", i, err)
		}
		req := PlaceRequest{Dataset: dataset, Shard: i, Shards: shards, Total: db.N(), Text: text}
		var resp PlaceResponse
		decode := func(r *http.Response) error { return json.NewDecoder(r.Body).Decode(&resp) }
		if err := c.call(ctx, addr, placePath, req, decode); err != nil {
			return &RPCError{Worker: addr, Dataset: dataset, Shard: i, Op: "place", Err: err}
		}
		if resp.Hash != hash {
			return &RPCError{Worker: addr, Dataset: dataset, Shard: i, Op: "place",
				Err: fmt.Errorf("slice hash mismatch: worker stored %s, coordinator rendered %s", resp.Hash, hash)}
		}
	}
	c.mu.Lock()
	c.placed[dataset] = pl
	c.mu.Unlock()
	c.obs.PlacementDone(dataset, shards)
	return nil
}

// Placed reports whether dataset has a verified placement.
func (c *Client) Placed(dataset string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.placed[dataset]
	return ok
}

// Kernel returns a per-job session implementing core.Options.ShardKernel
// over the dataset's placement: it serves per-shard tail PMFs, the only
// quantity the coordinator delegates. ctx bounds every RPC of the job;
// fail (may be nil) is invoked with the structured RPCError when a shard
// call ultimately fails, so the owning job is cancelled with a meaningful
// cause while the miner falls back to bit-identical local computation for
// the in-flight tails.
func (c *Client) Kernel(ctx context.Context, fail context.CancelCauseFunc, dataset string) (*Session, error) {
	c.mu.Lock()
	pl, ok := c.placed[dataset]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("shard: dataset %s has no placement", dataset)
	}
	return &Session{c: c, ctx: ctx, fail: fail, dataset: dataset, pl: pl}, nil
}

// Session delegates one job's per-shard tail PMFs: each TailPMFs call is
// one fan-out, one eval RPC per shard carrying the whole batch of queries.
// It is safe for concurrent use by parallel miner workers.
type Session struct {
	c       *Client
	ctx     context.Context
	fail    context.CancelCauseFunc
	dataset string
	pl      placement
	tracer  *obs.Tracer

	failed  sync.Once
	fetched atomic.Int64
}

// SetTracer makes the session's eval RPCs request worker-side span batches
// and merge them into tr, attributed per worker address and shifted onto
// tr's timeline by the clock offset derived from each round trip
// (DESIGN §16). Must be called before mining starts — the field is read
// without synchronization by the fan-out goroutines. Tracing changes no
// computed value: responses carry the same PMFs either way.
func (s *Session) SetTracer(tr *obs.Tracer) { s.tracer = tr }

// FetchedTails returns how many queries the session's successful TailPMFs
// calls answered. On a delegated run every tail the miner evaluates comes
// through the session, so FetchedTails minus Stats.TailEvaluations counts
// the tails it fetched ahead and never consumed.
func (s *Session) FetchedTails() int64 { return s.fetched.Load() }

// evalShard performs one traced-or-not eval RPC against shard i's worker.
// With a tracer set it brackets the call with tracer timestamps and imports
// the returned span batch at offset t0 + (rtt − busy)/2 — the symmetric-
// network estimate of where the worker's handler epoch sits on the job
// timeline (never earlier than the request went out).
func (s *Session) evalShard(i int, req EvalRequest) (EvalResponse, error) {
	tr := s.tracer
	req.Trace = tr != nil
	t0 := tr.Now()
	resp, err := s.c.eval(s.ctx, s.pl.workers[i], req)
	if err == nil && tr != nil && !resp.Batch.Empty() {
		off := t0
		if rtt := tr.Now() - t0; resp.Batch.BusyNS > 0 && rtt > resp.Batch.BusyNS {
			off = t0 + (rtt-resp.Batch.BusyNS)/2
		}
		tr.ImportBatch(s.pl.workers[i], off, resp.Batch)
	}
	return resp, err
}

// TailPMFs fans the queries out to every shard's worker concurrently, one
// eval RPC per shard, and returns out[q][i]: query q's truncated-at-k PMF
// on shard i. ok = false means some shard ultimately failed: the session
// cancels its job context with the structured RPCError, returns no PMFs,
// and the caller computes the tails locally (bit-identically) before the
// cancellation unwinds the job.
func (s *Session) TailPMFs(qs []Query, k int) ([][][]float64, bool) {
	n := s.pl.layout.N
	byShard := make([][][]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := EvalRequest{Dataset: s.dataset, Shard: i, Op: OpPMF, Queries: qs, K: k}
			resp, err := s.evalShard(i, req)
			if err != nil {
				errs[i] = err
				return
			}
			byShard[i] = resp.PMFs
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			s.failWith(&RPCError{Worker: s.pl.workers[i], Dataset: s.dataset, Shard: i, Op: OpPMF, Err: err})
			return nil, false
		}
	}
	s.fetched.Add(int64(len(qs)))
	flat := make([][]float64, len(qs)*n)
	out := make([][][]float64, len(qs))
	for q := range out {
		out[q] = flat[q*n : (q+1)*n : (q+1)*n]
		for i := range out[q] {
			out[q][i] = byShard[i][q]
		}
	}
	return out, true
}

func (s *Session) failWith(err *RPCError) {
	if s.fail != nil {
		s.failed.Do(func() { s.fail(err) })
	}
}

// eval performs one eval RPC with the per-call timeout and one bounded
// retry (skipped when the job context is already done). The frame is read
// up to the largest valid answer to req and no further, and decoded whole:
// a short, over-long or malformed body is an error, never a partial PMF.
func (c *Client) eval(ctx context.Context, addr string, req EvalRequest) (EvalResponse, error) {
	var resp EvalResponse
	limit := maxFrame(len(req.Queries), req.K, req.Trace)
	decode := func(r *http.Response) error {
		var buf bytes.Buffer
		if r.ContentLength > 0 && r.ContentLength <= limit {
			buf.Grow(int(r.ContentLength))
		}
		if _, err := buf.ReadFrom(io.LimitReader(r.Body, limit+1)); err != nil {
			return err
		}
		if int64(buf.Len()) > limit {
			return fmt.Errorf("eval frame exceeds %d bytes", limit)
		}
		var err error
		resp, err = decodeEvalFrame(buf.Bytes(), len(req.Queries), req.K, req.Trace)
		return err
	}
	err := c.call(ctx, addr, evalPath, req, decode)
	if err != nil && ctx.Err() == nil {
		c.obs.ShardRetry()
		err = c.call(ctx, addr, evalPath, req, decode)
	}
	if err != nil {
		return EvalResponse{}, err
	}
	c.obs.ShardEvalStats(resp.Evals, resp.MemoHits)
	return resp, nil
}

// call POSTs a JSON body and hands a 2xx response to decode, observing the
// attempt latency. A non-2xx answer is an error carrying the worker's JSON
// error message.
func (c *Client) call(ctx context.Context, addr, path string, body any, decode func(*http.Response) error) error {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, workerURL(addr, path), bytes.NewReader(payload))
	if err != nil {
		return err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if id := TraceIDFrom(ctx); id != "" {
		httpReq.Header.Set(TraceHeader, id)
	}
	start := time.Now()
	httpResp, err := c.hc.Do(httpReq)
	c.obs.ShardRPC(time.Since(start))
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode/100 != 2 {
		var e errorResponse
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 1024))
		if json.Unmarshal(msg, &e) == nil && e.Error != "" {
			return fmt.Errorf("status %d: %s", httpResp.StatusCode, e.Error)
		}
		return fmt.Errorf("status %d: %s", httpResp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return decode(httpResp)
}

// CheckHealth probes every worker's /healthz once, reporting each verdict
// to the observer and returning the up/down map.
func (c *Client) CheckHealth(ctx context.Context) map[string]bool {
	workers := c.Workers()
	out := make(map[string]bool, len(workers))
	for _, addr := range workers {
		out[addr] = c.probe(ctx, addr)
		c.obs.WorkerUp(addr, out[addr])
	}
	return out
}

func (c *Client) probe(ctx context.Context, addr string) bool {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, workerURL(addr, "/healthz"), nil)
	if err != nil {
		return false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	return resp.StatusCode == http.StatusOK
}

// HealthLoop probes all workers every interval until ctx is done.
func (c *Client) HealthLoop(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.CheckHealth(ctx)
		}
	}
}

// workerURL joins a worker address (host:port or full URL) with a path.
func workerURL(addr, path string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/") + path
}
