package shard

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/obs"
)

// Wire protocol of the coordinator/worker mode, over HTTP (HTTP's
// Content-Length is the length prefix).
//
// Placement (POST /shard/v1/datasets) is JSON both ways: the slice ships in
// the uncertain text format, whose %g round-trips float64, and the worker
// echoes a content hash of what it stored.
//
// Evaluation (POST /shard/v2/eval) sends a JSON EvalRequest naming a batch
// of (items, ext) queries against one shard. A 200 answer is one
// little-endian binary frame (application/octet-stream):
//
//	u64 evals      worker tail computations for this call
//	u64 memo hits  worker memo hits for this call
//	u64 busy ns    handler wall time (0 when untraced)
//	u32 count      number of PMFs, one per query, in query order
//	count × { u32 n, n × u64 float64 bits }
//	span JSON      only when the request asked for a trace
//
// PMF values cross as their float64 bits, so the coordinator folds exactly
// what the worker computed — which is what lets the distributed path stay
// byte-identical to in-memory sharded mining. Errors are JSON bodies with a
// non-2xx status. The route carries the frame version: a coordinator that
// meets a worker without it gets a 404, which fails its job with an
// RPCError instead of mis-decoding a body it does not understand.

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

// Routes of the worker surface.
const (
	placePath = "/shard/v1/datasets"
	evalPath  = "/shard/v2/eval"
)

// OpPMF is the one eval op: truncated tail coefficient vectors of one
// shard. Workers reject any other op with a 400, so a coordinator that
// still asks for something else (such as the retired "factor" op, the
// Lemma 4.4 clause absence partial the coordinator now folds itself)
// fails its job with an RPCError instead of reading a zero value.
const OpPMF = "pmf"

// Query names one tail target: Items plus Ext when Ext ≥ 0, Items alone
// otherwise (Items may be nil only with Ext ≥ 0, the single-item set
// {Ext}).
type Query struct {
	Items itemset.Itemset `json:"items"`
	Ext   itemset.Item    `json:"ext"` // -1 when absent
}

// EvalRequest asks a worker for one shard's truncated-at-K support PMF of
// every query, answered in query order. Op must be OpPMF. Trace asks the
// worker to run the batch under its own phase-span tracer and return the
// recorded spans — pure observability, the computed values are identical
// either way.
type EvalRequest struct {
	Dataset string  `json:"dataset"`
	Shard   int     `json:"shard"`
	Op      string  `json:"op"`
	Queries []Query `json:"queries"`
	K       int     `json:"k,omitempty"`
	Trace   bool    `json:"trace,omitempty"`
}

// EvalResponse is a decoded eval frame: one PMF per query plus this
// call's evaluation accounting (deltas, so the coordinator can aggregate
// exact totals). When the request asked for tracing, Batch holds the
// worker-side phase spans with timestamps relative to the handler start
// and the handler wall time — the coordinator derives the clock offset
// from the RPC round trip (DESIGN §16) and merges them into the job's
// tracer.
type EvalResponse struct {
	Evals    int64
	MemoHits int64
	PMFs     [][]float64
	Batch    obs.SpanBatch
}

// frameHeader is the byte size of the fixed frame header.
const frameHeader = 3*8 + 4

// maxSpanTrailer caps the span JSON a traced frame may carry. A worker
// records one span per call, a few dozen bytes.
const maxSpanTrailer = 1 << 16

// maxFrame is the largest valid frame for count PMFs truncated at k: each
// PMF has at most k+1 cells.
func maxFrame(count, k int, traced bool) int64 {
	n := int64(frameHeader) + int64(count)*(4+8*(int64(k)+1))
	if traced {
		n += maxSpanTrailer
	}
	return n
}

// appendEvalFrame appends resp's frame to b. The span trailer is written
// only when traced.
func appendEvalFrame(b []byte, resp *EvalResponse, traced bool) ([]byte, error) {
	b = binary.LittleEndian.AppendUint64(b, uint64(resp.Evals))
	b = binary.LittleEndian.AppendUint64(b, uint64(resp.MemoHits))
	b = binary.LittleEndian.AppendUint64(b, uint64(resp.Batch.BusyNS))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.PMFs)))
	for _, v := range resp.PMFs {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
		for _, f := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	if !traced {
		return b, nil
	}
	spans, err := json.Marshal(resp.Batch.Spans)
	if err != nil {
		return nil, err
	}
	return append(b, spans...), nil
}

// errFrameTruncated reports a frame that ends inside its header or a PMF.
var errFrameTruncated = errors.New("eval frame truncated")

// decodeEvalFrame decodes a frame that must answer count queries truncated
// at k. It accepts only a whole, exact frame: a short body, a count other
// than count, a PMF that is empty or longer than k+1 cells, or bytes after
// the last PMF (other than the span JSON of a traced call) are errors, and
// an error never comes with PMFs.
func decodeEvalFrame(body []byte, count, k int, traced bool) (EvalResponse, error) {
	var resp EvalResponse
	if len(body) < frameHeader {
		return EvalResponse{}, errFrameTruncated
	}
	resp.Evals = int64(binary.LittleEndian.Uint64(body))
	resp.MemoHits = int64(binary.LittleEndian.Uint64(body[8:]))
	resp.Batch.BusyNS = int64(binary.LittleEndian.Uint64(body[16:]))
	if n := binary.LittleEndian.Uint32(body[24:]); int64(n) != int64(count) {
		return EvalResponse{}, fmt.Errorf("eval frame carries %d PMFs, want %d", n, count)
	}
	body = body[frameHeader:]
	resp.PMFs = make([][]float64, count)
	for i := range resp.PMFs {
		if len(body) < 4 {
			return EvalResponse{}, errFrameTruncated
		}
		n := int64(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if n < 1 || n > int64(k)+1 {
			return EvalResponse{}, fmt.Errorf("eval frame PMF %d has %d cells, want 1..%d", i, n, k+1)
		}
		if int64(len(body)) < 8*n {
			return EvalResponse{}, errFrameTruncated
		}
		v := make([]float64, n)
		for j := range v {
			v[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*j:]))
		}
		resp.PMFs[i] = v
		body = body[8*n:]
	}
	if len(body) > 0 {
		if !traced {
			return EvalResponse{}, fmt.Errorf("eval frame has %d trailing bytes", len(body))
		}
		if err := json.Unmarshal(body, &resp.Batch.Spans); err != nil {
			return EvalResponse{}, fmt.Errorf("eval frame span trailer: %w", err)
		}
	}
	return resp, nil
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
