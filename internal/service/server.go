package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/shard"
	"github.com/probdata/pfcim/internal/store"
	"github.com/probdata/pfcim/internal/sweep"
	"github.com/probdata/pfcim/internal/uncertain"
)

// Config tunes one daemon instance. The zero value is serviceable: defaults
// are applied by New.
type Config struct {
	// Workers is the mining worker pool size. Default: GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker; a full
	// queue rejects submissions with 503. Default 64.
	QueueDepth int
	// CacheSize bounds the result cache (entries); ≤ -1 disables caching,
	// 0 means the default 128.
	CacheSize int
	// MaxJobTime caps every job's wall time; 0 means no deadline. A job may
	// request a shorter timeout, never a longer one.
	MaxJobTime time.Duration
	// MaxUploadBytes bounds dataset upload bodies. Default 256 MiB.
	MaxUploadBytes int64
	// AllowPathLoad enables registering datasets from server-local paths
	// ({"path": ...} bodies). Off by default: with it on, any client can
	// read any file the daemon can, so it is for trusted setups only.
	AllowPathLoad bool
	// SlowJobThreshold, when positive, logs a warning (and bumps the
	// slow_jobs counter) for every job whose wall time exceeds it.
	SlowJobThreshold time.Duration
	// DisableJobTracing turns off the per-job phase tracer; jobs then skip
	// the span-recording code paths entirely and GET /v1/jobs/{id}/trace
	// returns 404. Tracing never changes results, so this exists only to
	// shave the last percent of overhead on latency-critical deployments.
	DisableJobTracing bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiles expose internals, so opt in per deployment.
	EnablePprof bool
	// Shards is the default core.Options.Shards applied to jobs (and sweep
	// points) that leave the field at 0. ≥ 2 partitions every tail
	// computation by transaction range; without ShardWorkers the partition
	// arithmetic runs in-process, which changes results only at the
	// floating-point regrouping level (≪ 1e-9) and gives distinct cache
	// keys per layout.
	Shards int
	// ShardWorkers lists shard worker base addresses (host:port or full
	// URLs). Non-empty runs the daemon as a coordinator: registered
	// datasets are range-partitioned onto the workers over the consistent-
	// hash ring, and sharded jobs evaluate per-shard tails over RPC.
	// Shards < 2 is raised to max(2, len(ShardWorkers)).
	ShardWorkers []string
	// ShardRPCTimeout bounds each shard RPC attempt. Default 5s.
	ShardRPCTimeout time.Duration
	// ShardHealthInterval is the period of the background worker health
	// probe loop. Default 10s.
	ShardHealthInterval time.Duration
	// StoreDir, when set, makes the daemon durable: dataset lineages are
	// written through to a disk store before being acknowledged, finished
	// results are snapshotted on write, and startup restores both — prior
	// results then serve as cache hits and lineages resume at their
	// recorded version. Empty keeps the daemon fully in-memory.
	StoreDir string
	// QuotaRate, when positive, admits at most this many job/sweep
	// submissions per second per tenant (X-Pfcim-Tenant header; absent maps
	// to a shared default tenant). Excess submissions are shed with a
	// structured 429. Zero disables per-tenant quotas.
	QuotaRate float64
	// QuotaBurst is the token-bucket depth behind QuotaRate; 0 derives one
	// second's worth of tokens (minimum 1).
	QuotaBurst int
	// Logger receives structured logs. Default: slog.Default().
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 256 << 20
	}
	if len(c.ShardWorkers) > 0 && c.Shards < 2 {
		c.Shards = len(c.ShardWorkers)
		if c.Shards < 2 {
			c.Shards = 2
		}
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the pfcimd daemon core: registry + job manager + cache +
// metrics behind an http.Handler. Create with New, serve Handler(), and
// call Drain on shutdown.
type Server struct {
	cfg       Config
	log       *slog.Logger
	registry  *Registry
	jobs      *Manager
	cache     *resultCache
	metrics   *metrics
	store     *store.Store // nil without StoreDir
	persist   *persister   // nil without StoreDir
	quota     *admission   // nil without QuotaRate
	started   time.Time
	mux       *http.ServeMux
	handler   http.Handler       // mux behind the request-ID middleware
	reqSeq    atomic.Int64       // request-ID sequence
	shards    *shard.Client      // nil unless ShardWorkers were configured
	shardStop context.CancelFunc // stops the worker health loop
}

// New builds a Server and starts its worker pool. With a StoreDir it opens
// (tolerantly — damaged segments are quarantined, not fatal) and restores
// the durable store first, so the returned server already serves every
// recorded lineage and snapshotted result.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		registry: NewRegistry(),
		cache:    newResultCache(cfg.CacheSize),
		metrics:  newMetrics(),
		quota:    newAdmission(cfg.QuotaRate, cfg.QuotaBurst),
		started:  time.Now(),
		mux:      http.NewServeMux(),
	}
	if cfg.StoreDir != "" {
		st, err := store.Recover(cfg.StoreDir)
		if err != nil {
			return nil, fmt.Errorf("service: open durable store: %w", err)
		}
		s.store = st
		s.persist = &persister{st: st, log: s.log, mtr: s.metrics}
		s.registry.persist = s.persist
		s.cache.persist = s.persist
		if q := st.Quarantined(); len(q) > 0 {
			s.metrics.StoreQuarantined.Add(int64(len(q)))
			s.log.Warn("durable store quarantined damaged segments", "files", q)
		}
		restored, err := s.registry.restore(s.persist)
		if err != nil {
			return nil, fmt.Errorf("service: restore durable store: %w", err)
		}
		_, _, results := st.Counts()
		s.log.Info("durable store restored", "dir", cfg.StoreDir,
			"datasets", restored, "results", results)
	}
	if len(cfg.ShardWorkers) > 0 {
		client, err := shard.NewClient(cfg.ShardWorkers, cfg.ShardRPCTimeout, s.metrics)
		if err != nil {
			return nil, fmt.Errorf("service: shard client: %w", err)
		}
		s.shards = client
		hctx, stop := context.WithCancel(context.Background())
		s.shardStop = stop
		go func() {
			client.CheckHealth(hctx) // prime the worker_up gauges
			client.HealthLoop(hctx, cfg.ShardHealthInterval)
		}()
	}
	s.jobs = newManager(cfg, s.cache, s.metrics, s.log, s.shards)

	s.mux.HandleFunc("POST /v1/datasets", s.handleRegisterDataset)
	s.mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	s.mux.HandleFunc("GET /v1/datasets/{id}", s.handleGetDataset)
	s.mux.HandleFunc("POST /v1/datasets/{id}/append", s.handleAppendDataset)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.metrics.serveHTTP)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.handler = s.withRequestID(s.mux)
	return s, nil
}

// Handler returns the daemon's HTTP handler (request-ID middleware
// included: every response carries X-Request-Id and every handler log line
// the matching request_id attribute).
func (s *Server) Handler() http.Handler { return s.handler }

// Registry exposes the dataset registry (cmd/pfcimd preloads datasets
// through it).
func (s *Server) Registry() *Registry { return s.registry }

// Jobs exposes the job manager.
func (s *Server) Jobs() *Manager { return s.jobs }

// Metrics returns a snapshot of every daemon counter.
func (s *Server) Metrics() map[string]int64 { return s.metrics.snapshot() }

// Drain gracefully shuts the worker pool down: intake stops, queued jobs
// are canceled, running jobs finish (until ctx expires, at which point they
// are canceled and awaited). The shard-worker health loop stops first.
func (s *Server) Drain(ctx context.Context) error {
	if s.shardStop != nil {
		s.shardStop()
	}
	return s.jobs.Drain(ctx)
}

// placeShards ships a freshly registered dataset's range partition to the
// shard workers; a no-op on a non-coordinator. A dataset with fewer
// transactions than shards is left unplaced — jobs against it mine
// in-process with the byte-identical inline partition arithmetic.
func (s *Server) placeShards(ctx context.Context, ds *Dataset) error {
	if s.shards == nil || s.shards.Placed(ds.ID) {
		return nil
	}
	if ds.DB().N() < s.cfg.Shards {
		s.log.Warn("dataset smaller than shard count; its jobs mine in-process",
			"dataset", ds.ID, "transactions", ds.DB().N(), "shards", s.cfg.Shards)
		return nil
	}
	if err := s.shards.Place(ctx, ds.ID, ds.DB(), s.cfg.Shards); err != nil {
		return fmt.Errorf("service: shard placement failed: %w", err)
	}
	s.log.Info("dataset placed on shard workers", "dataset", ds.ID, "shards", s.cfg.Shards)
	return nil
}

// --- wire types ---

// DatasetInfo is the wire form of a registered dataset version. Lineage is
// the root version's id (== ID for a freshly registered dataset), Version
// this version's 1-based position, LatestVersion the lineage's newest —
// when Version < LatestVersion, this version has been superseded by
// appends (it stays addressable and minable forever).
type DatasetInfo struct {
	ID              string    `json:"id"`
	Lineage         string    `json:"lineage"`
	Version         int       `json:"version"`
	LatestVersion   int       `json:"latest_version"`
	Immutable       bool      `json:"immutable,omitempty"`
	NumTransactions int       `json:"num_transactions"`
	NumItems        int       `json:"num_items"`
	AvgLength       float64   `json:"avg_length"`
	MaxLength       int       `json:"max_length"`
	MeanProb        float64   `json:"mean_prob"`
	RegisteredAt    time.Time `json:"registered_at"`
}

func (s *Server) datasetInfo(d *Dataset) DatasetInfo {
	return DatasetInfo{
		ID:              d.ID,
		Lineage:         d.Lineage,
		Version:         d.Version,
		LatestVersion:   s.registry.LatestVersion(d.Lineage),
		Immutable:       d.Immutable,
		NumTransactions: d.Stats.NumTransactions,
		NumItems:        d.Stats.NumItems,
		AvgLength:       d.Stats.AvgLength,
		MaxLength:       d.Stats.MaxLength,
		MeanProb:        d.Stats.MeanProb,
		RegisteredAt:    d.RegisteredAt,
	}
}

// jobRequest is the POST /v1/jobs body.
type jobRequest struct {
	Dataset   string           `json:"dataset"`
	Options   core.OptionsJSON `json:"options"`
	TimeoutMS int64            `json:"timeout_ms,omitempty"`
}

// sweepRequest is the POST /v1/sweeps body: a base option set plus the grid
// points, each overriding only the thresholds it sets.
type sweepRequest struct {
	Dataset   string            `json:"dataset"`
	Options   core.OptionsJSON  `json:"options"`
	Points    []sweep.PointJSON `json:"points"`
	TimeoutMS int64             `json:"timeout_ms,omitempty"`
}

// errorResponse is every error body; Field is set when the error is
// attributable to one request field (e.g. an unknown or mistyped one).
// Load-shed rejections (429) additionally carry the machine-readable
// Reason ("quota" or "queue_full"), the tenant that was throttled, and a
// retry hint mirroring the Retry-After header.
type errorResponse struct {
	Error        string `json:"error"`
	Field        string `json:"field,omitempty"`
	Reason       string `json:"reason,omitempty"`
	Tenant       string `json:"tenant,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// badFieldError carries the name of the request field that caused a 400.
type badFieldError struct {
	field string
	err   error
}

func (e *badFieldError) Error() string { return e.err.Error() }
func (e *badFieldError) Unwrap() error { return e.err }

// decodeStrict decodes a JSON request body rejecting unknown fields, so a
// misspelled option fails loudly instead of silently falling back to a
// default. Unknown-field and type errors name the offending field in the
// structured response.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return nil
	}
	const marker = `json: unknown field "`
	if msg := err.Error(); strings.HasPrefix(msg, marker) {
		field := strings.TrimSuffix(strings.TrimPrefix(msg, marker), `"`)
		return &badFieldError{field: field,
			err: fmt.Errorf("service: unknown field %q in request body", field)}
	}
	var ute *json.UnmarshalTypeError
	if errors.As(err, &ute) && ute.Field != "" {
		return &badFieldError{field: ute.Field,
			err: fmt.Errorf("service: field %q: cannot decode %s into %s", ute.Field, ute.Value, ute.Type)}
	}
	return fmt.Errorf("service: bad JSON body: %w", err)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.log.Error("response encode failed", "error", err)
	}
}

// encoded is one immutable wire payload — a finished result, a watched
// job's diff or a sweep — that the daemon renders at most once however
// often it is served. Each form is computed on first use, so finishing a
// job encodes nothing: the compact form on the first store write (or the
// first serve), the served form on the first serve. A result read through
// from the store starts from its stored bytes and is decoded only if an
// in-process caller asks for the value.
type encoded[T any] struct {
	val     *T     // nil when built from stored bytes, until value decodes them
	compact []byte // json.Marshal form, the store's bytes
	served  []byte // compact, indented for depth 1 of a JobInfo

	valOnce, compactOnce, servedOnce sync.Once
	valErr, compactErr, servedErr    error
}

func encodedValue[T any](v *T) *encoded[T] { return &encoded[T]{val: v} }

func encodedBytes[T any](compact []byte) *encoded[T] { return &encoded[T]{compact: compact} }

// value returns the decoded payload.
func (e *encoded[T]) value() (*T, error) {
	e.valOnce.Do(func() {
		if e.val != nil {
			return
		}
		data, err := e.compactBytes()
		if err == nil {
			v := new(T)
			if err = json.Unmarshal(data, v); err == nil {
				e.val = v
			}
		}
		e.valErr = err
	})
	return e.val, e.valErr
}

// compactBytes returns the json.Marshal form.
func (e *encoded[T]) compactBytes() ([]byte, error) {
	e.compactOnce.Do(func() {
		if e.compact == nil {
			e.compact, e.compactErr = json.Marshal(e.val)
		}
	})
	return e.compact, e.compactErr
}

// wire returns the payload exactly as writeJSON renders it as a field of a
// JobInfo: json.Encoder marshals the whole document compactly, with the
// same HTML escaping as json.Marshal, and then indents it, so indenting
// the compact payload once with the prefix of depth 1 yields the same
// bytes.
func (e *encoded[T]) wire() ([]byte, error) {
	e.servedOnce.Do(func() {
		data, err := e.compactBytes()
		if err == nil {
			var buf bytes.Buffer
			buf.Grow(len(data) + len(data)/2)
			if err = json.Indent(&buf, data, "  ", "  "); err == nil {
				e.served = buf.Bytes()
			}
		}
		e.servedErr = err
	})
	return e.served, e.servedErr
}

// writeJob renders a job byte-identically to writeJSON(w, status, info)
// with the payloads filled in. Only the small envelope is encoded per
// request; each payload's rendered bytes are spliced in before the
// envelope's closing brace, in JobInfo's field order.
func (s *Server) writeJob(w http.ResponseWriter, status int, v jobView) {
	type part struct {
		field string // the separator and key that precede the payload
		wire  func() ([]byte, error)
		body  []byte
	}
	var parts []part
	if v.result != nil {
		parts = append(parts, part{field: ",\n  \"result\": ", wire: v.result.wire})
	}
	if v.diff != nil {
		parts = append(parts, part{field: ",\n  \"diff\": ", wire: v.diff.wire})
	}
	if v.sweep != nil {
		parts = append(parts, part{field: ",\n  \"sweep\": ", wire: v.sweep.wire})
	}
	if len(parts) == 0 {
		s.writeJSON(w, status, v.info)
		return
	}
	var env bytes.Buffer
	enc := json.NewEncoder(&env)
	enc.SetIndent("", "  ")
	err := enc.Encode(v.info)
	const closing = "\n}\n" // how the indenting encoder ends a non-empty object
	head := bytes.TrimSuffix(env.Bytes(), []byte(closing))
	size := len(head) + len(closing)
	for i := range parts {
		if err != nil {
			break
		}
		parts[i].body, err = parts[i].wire()
		size += len(parts[i].field) + len(parts[i].body)
	}
	if err != nil {
		s.log.Error("response encode failed", "error", err)
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(size))
	w.WriteHeader(status)
	// A failed write breaks the connection and every later write fails
	// too, so checking the last one is enough.
	w.Write(head)
	for _, p := range parts {
		io.WriteString(w, p.field)
		w.Write(p.body)
	}
	if _, err := io.WriteString(w, closing); err != nil {
		s.log.Debug("response write failed", "error", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	resp := errorResponse{Error: err.Error()}
	var bf *badFieldError
	if errors.As(err, &bf) {
		resp.Field = bf.field
	}
	s.writeJSON(w, status, resp)
}

// --- dataset handlers ---

// handleRegisterDataset accepts either the text interchange format (any
// non-JSON content type) or, when path loading is enabled, a JSON body
// {"path": "/file/on/the/server"}. Registration is idempotent: the same
// content returns the same id with 200 instead of 201. ?immutable=true
// closes the new lineage to appends (ignored when the content already
// exists — the first registration's choice sticks).
func (s *Server) handleRegisterDataset(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	immutable := r.URL.Query().Get("immutable") == "true"
	var (
		ds    *Dataset
		fresh bool
		err   error
	)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req struct {
			Path string `json:"path"`
		}
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad JSON body: %w", err))
			return
		}
		if req.Path == "" {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: JSON registration requires \"path\""))
			return
		}
		if !s.cfg.AllowPathLoad {
			s.writeError(w, http.StatusForbidden, fmt.Errorf("service: path loading is disabled (start pfcimd with -allow-path-load)"))
			return
		}
		ds, fresh, err = s.registry.RegisterPath(req.Path, immutable)
	} else {
		ds, fresh, err = s.registry.RegisterText(body, immutable)
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusOK
	if fresh {
		status = http.StatusCreated
		s.metrics.DatasetsRegistered.Add(1)
		s.log.Info("dataset registered", "dataset", ds.ID,
			"transactions", ds.Stats.NumTransactions, "items", ds.Stats.NumItems,
			"immutable", ds.Immutable)
	}
	// On a coordinator, registration includes placement: the dataset is not
	// usable for distributed jobs until every worker holds (and has hash-
	// verified) its slice. Re-registering retries a failed placement.
	if err := s.placeShards(r.Context(), ds); err != nil {
		s.writeError(w, http.StatusBadGateway, err)
		return
	}
	s.writeJSON(w, status, s.datasetInfo(ds))
}

// handleAppendDataset creates the next version of the dataset's lineage:
// the current latest version's transactions plus the posted batch, content-
// hashed into a new addressable (and independently minable) version. The
// body is the text interchange format, or {"path": ...} when path loading
// is enabled. The path {id} accepts the same references as job submission
// ("id", "id@latest", "id@N" — the append always extends the lineage's
// latest version regardless of which one was named). Appending the same
// batch twice is idempotent (200, not 201); appending to an immutable
// dataset is a 409.
func (s *Server) handleAppendDataset(w http.ResponseWriter, r *http.Request) {
	ref := r.PathValue("id")
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	var (
		ds    *Dataset
		fresh bool
		err   error
	)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req struct {
			Path string `json:"path"`
		}
		if err := decodeStrict(body, &req); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		if req.Path == "" {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: JSON append requires \"path\""))
			return
		}
		if !s.cfg.AllowPathLoad {
			s.writeError(w, http.StatusForbidden, fmt.Errorf("service: path loading is disabled (start pfcimd with -allow-path-load)"))
			return
		}
		ds, fresh, err = s.registry.AppendPath(ref, req.Path)
	} else {
		ds, fresh, err = s.registry.AppendText(ref, body)
	}
	switch {
	case err == nil:
	case errors.Is(err, ErrImmutable):
		s.writeError(w, http.StatusConflict, err)
		return
	case errors.Is(err, ErrNoSuchDataset), errors.Is(err, ErrNoSuchVersion):
		s.writeError(w, http.StatusNotFound, err)
		return
	default:
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusOK
	if fresh {
		status = http.StatusCreated
		s.metrics.DatasetsRegistered.Add(1)
		s.metrics.DatasetsAppended.Add(1)
		s.log.Info("dataset appended", "dataset", ds.ID, "lineage", ds.Lineage,
			"version", ds.Version, "transactions", ds.Stats.NumTransactions)
	}
	if err := s.placeShards(r.Context(), ds); err != nil {
		s.writeError(w, http.StatusBadGateway, err)
		return
	}
	s.writeJSON(w, status, s.datasetInfo(ds))
}

func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	list := s.registry.List()
	out := make([]DatasetInfo, len(list))
	for i, d := range list {
		out[i] = s.datasetInfo(d)
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	d, err := s.registry.Resolve(r.PathValue("id"))
	if err != nil {
		s.writeError(w, s.resolveStatus(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, s.datasetInfo(d))
}

// resolveStatus maps a Registry.Resolve error to its HTTP status: unknown
// ids and versions are 404, a malformed selector is 400.
func (s *Server) resolveStatus(err error) int {
	if errors.Is(err, ErrNoSuchDataset) || errors.Is(err, ErrNoSuchVersion) {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

// --- job handlers ---

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	var req jobRequest
	if err := decodeStrict(io.LimitReader(r.Body, 1<<20), &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	ds, err := s.registry.Resolve(req.Dataset)
	if err != nil {
		s.writeError(w, s.resolveStatus(err), err)
		return
	}
	v, err := s.jobs.submit(ds, req.Dataset, req.Options, time.Duration(req.TimeoutMS)*time.Millisecond)
	if err == nil {
		// The correlation line: request_id (logger) ↔ job id ↔ trace id, so
		// client logs, daemon logs, and worker logs join on either key.
		s.rlog(r).Info("job submitted", "job", v.info.ID, "trace", v.info.TraceID,
			"dataset", v.info.Dataset, "cached", v.info.Cached)
	}
	s.writeSubmitResult(w, v, err)
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	var req sweepRequest
	if err := decodeStrict(io.LimitReader(r.Body, 1<<20), &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// Sweeps resolve references like jobs but always pin the resolved
	// version: a sweep is a batch exploration, not a live watch.
	ds, err := s.registry.Resolve(req.Dataset)
	if err != nil {
		s.writeError(w, s.resolveStatus(err), err)
		return
	}
	v, err := s.jobs.submitSweep(ds, req.Options, req.Points, time.Duration(req.TimeoutMS)*time.Millisecond)
	if err == nil {
		s.rlog(r).Info("sweep submitted", "job", v.info.ID, "trace", v.info.TraceID,
			"dataset", v.info.Dataset, "points", len(req.Points))
	}
	s.writeSubmitResult(w, v, err)
}

// writeSubmitResult maps a submission outcome to the HTTP response shared
// by jobs and sweeps: 202 queued, 200 cache hit, 429 shed (queue full — a
// structured, retryable rejection distinct from the 503 a shutting-down
// daemon returns), 400 invalid.
func (s *Server) writeSubmitResult(w http.ResponseWriter, v jobView, err error) {
	switch {
	case err == nil:
	case err == ErrQueueFull:
		s.metrics.JobsShedQueueFull.Add(1)
		s.writeShed(w, errorResponse{
			Error:        err.Error(),
			Reason:       "queue_full",
			RetryAfterMS: 1000, // no per-job ETA; one second is the honest generic hint
		})
		return
	case err == ErrShuttingDown:
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	default:
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusAccepted
	if v.info.Status.Terminal() { // cache hit: already done
		status = http.StatusOK
	}
	s.writeJob(w, status, v)
}

// writeShed renders one structured 429 with its Retry-After header
// (rounded up to whole seconds, the header's resolution).
func (s *Server) writeShed(w http.ResponseWriter, resp errorResponse) {
	retrySec := (resp.RetryAfterMS + 999) / 1000
	if retrySec < 1 {
		retrySec = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retrySec))
	s.writeJSON(w, http.StatusTooManyRequests, resp)
}

// admit applies the per-tenant quota to one submission; on rejection it has
// already written the 429 and the caller must return.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	if s.quota == nil {
		return true
	}
	tenant := r.Header.Get(TenantHeader)
	ok, retryAfter := s.quota.allow(tenant)
	if ok {
		return true
	}
	if tenant == "" {
		tenant = defaultTenant
	}
	s.metrics.JobsShedQuota.Add(1)
	s.rlog(r).Warn("submission shed by quota", "tenant", tenant,
		"retry_after_ms", retryAfter.Milliseconds())
	s.writeShed(w, errorResponse{
		Error:        fmt.Sprintf("service: tenant %q exceeded its submission quota (%g/s)", tenant, s.cfg.QuotaRate),
		Reason:       "quota",
		Tenant:       tenant,
		RetryAfterMS: retryAfter.Milliseconds(),
	})
	return false
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	views := s.jobs.views()
	// Job listings elide results and sweeps; fetch a single job for its
	// itemsets.
	list := make([]JobInfo, len(views))
	for i, v := range views {
		list[i] = v.info
		if v.diff != nil {
			list[i].Diff, _ = v.diff.value() // built from a value: never fails
		}
	}
	s.writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	v, err := s.jobs.view(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	s.writeJob(w, http.StatusOK, v)
}

// handleJobTrace serves the finished job's phase profile: per-phase and
// per-depth wall-time attribution plus per-worker busy time, as recorded by
// the job's tracer.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	p, err := s.jobs.Trace(r.PathValue("id"))
	switch {
	case err == nil:
	case errors.Is(err, ErrJobNotFinished):
		s.writeError(w, http.StatusConflict, err)
		return
	default:
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	s.writeJSON(w, http.StatusOK, p)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	v, err := s.jobs.cancel(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	s.writeJob(w, http.StatusOK, v)
}

// --- observability ---

// healthResponse is the /healthz body; status is always "ok" while the
// process serves requests — the endpoint exists so orchestrators can tell
// "serving" from "gone", and carries a little load snapshot for humans.
type healthResponse struct {
	Status      string `json:"status"`
	UptimeMS    int64  `json:"uptime_ms"`
	Datasets    int    `json:"datasets"`
	JobsRunning int64  `json:"jobs_running"`
	CacheLen    int    `json:"cache_len"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, healthResponse{
		Status:      "ok",
		UptimeMS:    time.Since(s.started).Milliseconds(),
		Datasets:    s.registry.Len(),
		JobsRunning: s.jobs.Running(),
		CacheLen:    s.cache.len(),
	})
}

// PreloadPath registers a dataset from a server-local file at startup
// (cmd/pfcimd's -preload), including shard placement on a coordinator.
func (s *Server) PreloadPath(path string) (DatasetInfo, error) {
	ds, fresh, err := s.registry.RegisterPath(path, false)
	if err != nil {
		return DatasetInfo{}, err
	}
	if fresh {
		s.metrics.DatasetsRegistered.Add(1)
	}
	if err := s.placeShards(context.Background(), ds); err != nil {
		return DatasetInfo{}, err
	}
	return s.datasetInfo(ds), nil
}

// RegisterDB registers an in-process database, including shard placement
// on a coordinator.
func (s *Server) RegisterDB(db *uncertain.DB) (DatasetInfo, error) {
	ds, fresh, err := s.registry.Register(db, false)
	if err != nil {
		return DatasetInfo{}, err
	}
	if fresh {
		s.metrics.DatasetsRegistered.Add(1)
	}
	if err := s.placeShards(context.Background(), ds); err != nil {
		return DatasetInfo{}, err
	}
	return s.datasetInfo(ds), nil
}
