package shard

import "github.com/probdata/pfcim/internal/obs"

// Wire protocol of the coordinator/worker mode: JSON bodies over HTTP
// (HTTP's Content-Length is the length prefix). Probability values survive
// the trip bit-exactly — both the uncertain text format (%g) and
// encoding/json render float64 with the shortest decimal that parses back
// to the identical bits — which is what lets the distributed path stay
// byte-identical to in-memory sharded mining.

// PlaceRequest ships one range-partition slice of a dataset to the worker
// the consistent-hash ring assigned it to.
type PlaceRequest struct {
	Dataset string `json:"dataset"` // content-hash id from the registry
	Shard   int    `json:"shard"`   // shard index in [0, Shards)
	Shards  int    `json:"shards"`  // layout N
	Total   int    `json:"total"`   // layout Total (dataset transactions)
	Text    string `json:"text"`    // slice in the uncertain text format
}

// PlaceResponse acknowledges a placement; Hash is the worker's content
// hash of the slice it stored, which the coordinator verifies against its
// own rendering.
type PlaceResponse struct {
	Dataset string `json:"dataset"`
	Shard   int    `json:"shard"`
	Trans   int    `json:"trans"`
	Hash    string `json:"hash"`
}

// OpPMF is the one eval op: the truncated tail coefficient vector of one
// shard. Workers reject any other op with a 400, so a coordinator that
// still asks for something else (such as the retired "factor" op, the
// Lemma 4.4 clause absence partial the coordinator now folds itself)
// fails its job with an RPCError instead of reading a zero value.
const OpPMF = "pmf"

// EvalRequest asks a worker for one shard's truncated-at-K support PMF of
// the itemset Items (+Ext when Ext ≥ 0). Op must be OpPMF. Trace asks the
// worker to run the evaluation under its own phase-span tracer and return
// the recorded spans — pure observability, the computed values are
// identical either way.
type EvalRequest struct {
	Dataset string `json:"dataset"`
	Shard   int    `json:"shard"`
	Op      string `json:"op"`
	Items   []int  `json:"items"`
	Ext     int    `json:"ext"` // -1 when absent
	K       int    `json:"k,omitempty"`
	Trace   bool   `json:"trace,omitempty"`
}

// EvalResponse carries the requested PMF plus this call's evaluation
// accounting (1/0 deltas, so the coordinator can aggregate exact totals).
// When the request asked for tracing, Spans holds the worker-side phase
// spans with timestamps relative to the handler start and BusyNS the
// handler wall time — the coordinator derives the clock offset from the
// RPC round trip (DESIGN §16) and merges them into the job's tracer.
type EvalResponse struct {
	PMF      []float64      `json:"pmf,omitempty"`
	Evals    int64          `json:"evals"`
	MemoHits int64          `json:"memo_hits"`
	BusyNS   int64          `json:"busy_ns,omitempty"`
	Spans    []obs.SpanWire `json:"spans,omitempty"`
}

// HealthResponse is the worker health-check body.
type HealthResponse struct {
	Status string `json:"status"`
	Slots  int    `json:"slots"` // (dataset, shard) slices held
}

// errorResponse is the structured error body workers return alongside a
// non-2xx status.
type errorResponse struct {
	Error string `json:"error"`
}
