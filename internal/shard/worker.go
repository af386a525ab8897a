package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/obs"
	"github.com/probdata/pfcim/internal/uncertain"
)

// TraceHeader carries the coordinator's trace/job ID on every shard RPC so
// worker logs correlate with the coordinator's job records.
const TraceHeader = "X-Pfcim-Trace"

// workerTraceRing bounds the per-request tracer on the worker: each eval
// RPC records exactly one span, however many queries it batches, so a
// small ring suffices.
const workerTraceRing = 8

// maxEvalBody caps an eval request body. The miner batches at most 16
// queries per request (core's batchChunk), each an itemset of item ids,
// plus a handful of scalars; anything larger is refused with a 413 before
// it is decoded.
const maxEvalBody = 1 << 20

// Worker is the HTTP surface of a shard worker: it accepts range-partition
// slices at placement time and serves per-shard tail PMFs to the
// coordinator. One Worker can hold slices of many datasets (keyed
// dataset/shard); evaluation on one slot is serialized, different slots
// evaluate concurrently.
type Worker struct {
	log   *slog.Logger
	mux   *http.ServeMux
	mu    sync.Mutex
	slots map[string]*workerSlot
}

type workerSlot struct {
	mu   sync.Mutex
	eval *Evaluator
	hash string
}

// NewWorker builds a worker; log may be nil.
func NewWorker(log *slog.Logger) *Worker {
	if log == nil {
		log = slog.Default()
	}
	w := &Worker{log: log, slots: map[string]*workerSlot{}, mux: http.NewServeMux()}
	w.mux.HandleFunc("POST "+placePath, w.handlePlace)
	w.mux.HandleFunc("POST "+evalPath, w.handleEval)
	w.mux.HandleFunc("GET /healthz", w.handleHealthz)
	return w
}

func (w *Worker) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	w.mux.ServeHTTP(rw, req)
}

// Slots returns the number of (dataset, shard) slices held.
func (w *Worker) Slots() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.slots)
}

func slotKey(dataset string, shard int) string {
	return fmt.Sprintf("%s/%d", dataset, shard)
}

func (w *Worker) handlePlace(rw http.ResponseWriter, req *http.Request) {
	var pr PlaceRequest
	if err := json.NewDecoder(req.Body).Decode(&pr); err != nil {
		writeShardError(rw, http.StatusBadRequest, fmt.Errorf("decoding placement: %w", err))
		return
	}
	if pr.Shards < 1 || pr.Shard < 0 || pr.Shard >= pr.Shards {
		writeShardError(rw, http.StatusBadRequest, fmt.Errorf("shard %d of %d out of range", pr.Shard, pr.Shards))
		return
	}
	db, err := uncertain.Read(strings.NewReader(pr.Text))
	if err != nil {
		writeShardError(rw, http.StatusBadRequest, err)
		return
	}
	trans := db.Transactions()
	l := Layout{N: pr.Shards, Total: pr.Total}
	eval, err := NewEvaluatorFromSlice(trans, l, pr.Shard)
	if err != nil {
		writeShardError(rw, http.StatusBadRequest, err)
		return
	}
	hash, err := HashSlice(trans)
	if err != nil {
		writeShardError(rw, http.StatusInternalServerError, err)
		return
	}
	w.mu.Lock()
	w.slots[slotKey(pr.Dataset, pr.Shard)] = &workerSlot{eval: eval, hash: hash}
	w.mu.Unlock()
	w.log.Info("shard placed", "dataset", pr.Dataset, "shard", pr.Shard,
		"trans", eval.Trans(), "trace", req.Header.Get(TraceHeader))
	writeShardJSON(rw, http.StatusCreated, PlaceResponse{
		Dataset: pr.Dataset, Shard: pr.Shard, Trans: eval.Trans(), Hash: hash,
	})
}

func (w *Worker) handleEval(rw http.ResponseWriter, req *http.Request) {
	var er EvalRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, req.Body, maxEvalBody)).Decode(&er); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeShardError(rw, code, fmt.Errorf("decoding eval: %w", err))
		return
	}
	if er.Op != OpPMF {
		writeShardError(rw, http.StatusBadRequest, fmt.Errorf("unknown op %q", er.Op))
		return
	}
	if er.K < 0 {
		writeShardError(rw, http.StatusBadRequest, fmt.Errorf("negative k %d", er.K))
		return
	}
	w.mu.Lock()
	slot, ok := w.slots[slotKey(er.Dataset, er.Shard)]
	w.mu.Unlock()
	if !ok {
		writeShardError(rw, http.StatusNotFound, fmt.Errorf("no slice for dataset %s shard %d", er.Dataset, er.Shard))
		return
	}
	// When the coordinator asks for a trace, the batch runs under a
	// short-lived per-request tracer whose spans ship back in the frame.
	// A tail PMF is the shard-side half of the coordinator's bound check,
	// so the batch records one PhaseBoundCheck span at the enumeration
	// depth of its first query — a batch holds the siblings of one node or
	// the candidate items, so every query shares that depth.
	var tr *obs.Tracer
	var rec *obs.Recorder
	depth := 0
	if len(er.Queries) > 0 {
		depth = len(er.Queries[0].Items)
	}
	if er.Trace {
		tr = obs.NewWithCapacity(workerTraceRing)
		rec = tr.Recorder(0)
		if tid := req.Header.Get(TraceHeader); tid != "" {
			w.log.Debug("shard eval traced", "trace", tid, "op", er.Op,
				"dataset", er.Dataset, "shard", er.Shard, "depth", depth, "queries", len(er.Queries))
		}
	}

	resp := EvalResponse{PMFs: make([][]float64, len(er.Queries))}
	slot.mu.Lock()
	evals0, hits0 := slot.eval.Evals, slot.eval.MemoHits
	start := rec.Now()
	for i, q := range er.Queries {
		resp.PMFs[i] = slot.eval.TailPMF(itemset.New(q.Items...), q.Ext, er.K)
	}
	rec.Span(obs.PhaseBoundCheck, depth, start)
	resp.Evals = slot.eval.Evals - evals0
	resp.MemoHits = slot.eval.MemoHits - hits0
	slot.mu.Unlock()
	if tr != nil {
		resp.Batch = tr.WireSpans()
	}
	// Memoized PMFs are read-only and never freed, so encoding after the
	// slot unlocks is safe.
	frame, err := appendEvalFrame(nil, &resp, er.Trace)
	if err != nil {
		writeShardError(rw, http.StatusInternalServerError, err)
		return
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	rw.WriteHeader(http.StatusOK)
	_, _ = rw.Write(frame)
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, req *http.Request) {
	writeShardJSON(rw, http.StatusOK, HealthResponse{Status: "ok", Slots: w.Slots()})
}

func writeShardJSON(rw http.ResponseWriter, code int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	_ = json.NewEncoder(rw).Encode(v)
}

func writeShardError(rw http.ResponseWriter, code int, err error) {
	writeShardJSON(rw, code, errorResponse{Error: err.Error()})
}
