package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/obs"
)

// framePMFs are the PMFs the frame tests encode: the float64 values whose
// bits a decimal or lossy encoding is most likely to get wrong.
var framePMFs = [][]float64{
	{1},
	{math.Copysign(0, -1), 5e-324, 1},
	{0.1, 0.2, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308, 1 - 1e-16},
}

func frameOf(t testing.TB, pmfs [][]float64, traced bool) []byte {
	t.Helper()
	resp := EvalResponse{Evals: 3, MemoHits: 2, PMFs: pmfs}
	if traced {
		resp.Batch = obs.SpanBatch{BusyNS: 99, Spans: []obs.SpanWire{{StartNS: 1, DurNS: 2, Phase: 3, Depth: 4}}}
	}
	b, err := appendEvalFrame(nil, &resp, traced)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEvalFrameRoundTrip: valid frames decode to the exact float64 bits
// that were encoded, traced or not; every damaged variant is an error that
// carries no PMFs.
func TestEvalFrameRoundTrip(t *testing.T) {
	const k = 4
	for _, traced := range []bool{false, true} {
		frame := frameOf(t, framePMFs, traced)
		resp, err := decodeEvalFrame(frame, len(framePMFs), k, traced)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if resp.Evals != 3 || resp.MemoHits != 2 || len(resp.PMFs) != len(framePMFs) {
			t.Fatalf("traced=%v: decoded %+v", traced, resp)
		}
		for i, want := range framePMFs {
			got := resp.PMFs[i]
			if len(got) != len(want) {
				t.Fatalf("traced=%v PMF %d: %d cells, want %d", traced, i, len(got), len(want))
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("traced=%v PMF %d cell %d: bits %x, want %x", traced, i, j,
						math.Float64bits(got[j]), math.Float64bits(want[j]))
				}
			}
		}
		if traced && (resp.Batch.BusyNS != 99 || len(resp.Batch.Spans) != 1 || resp.Batch.Spans[0].Depth != 4) {
			t.Fatalf("traced span batch %+v", resp.Batch)
		}

		bad := map[string][]byte{
			"trailing garbage": append(append([]byte(nil), frame...), "x"...),
		}
		for n := 0; n < len(frame); n++ {
			if traced && n >= len(frameOf(t, framePMFs, false)) {
				break // a cut span trailer is malformed JSON, checked below
			}
			bad[fmt.Sprintf("truncated to %d bytes", n)] = frame[:n]
		}
		if traced {
			bad["cut span trailer"] = frame[:len(frame)-1]
		}
		for name, body := range bad {
			if resp, err := decodeEvalFrame(body, len(framePMFs), k, traced); err == nil || resp.PMFs != nil {
				t.Fatalf("traced=%v %s (%d bytes): err=%v PMFs=%v, want an error and no PMFs",
					traced, name, len(body), err, resp.PMFs)
			}
		}
		for _, count := range []int{0, len(framePMFs) - 1, len(framePMFs) + 1} {
			if _, err := decodeEvalFrame(frame, count, k, traced); err == nil {
				t.Fatalf("traced=%v: frame of %d PMFs accepted as %d", traced, len(framePMFs), count)
			}
		}
		// The longest PMF has 5 cells: at k = 3 it is over-long.
		if _, err := decodeEvalFrame(frame, len(framePMFs), 3, traced); err == nil {
			t.Fatalf("traced=%v: 5-cell PMF accepted at k=3", traced)
		}
	}
	empty := frameOf(t, [][]float64{{}}, false)
	if _, err := decodeEvalFrame(empty, 1, k, false); err == nil {
		t.Fatal("empty PMF accepted")
	}
}

// FuzzEvalFrame: decoding never panics, an error never comes with PMFs,
// and every accepted untraced frame is canonical — it re-encodes to the
// same bytes, so no two bodies decode to the same answer and nothing in a
// body goes unread.
func FuzzEvalFrame(f *testing.F) {
	f.Add(frameOf(f, framePMFs, false), uint8(3), uint8(4))
	f.Add(frameOf(f, framePMFs[:1], false), uint8(1), uint8(0))
	f.Add(frameOf(f, nil, false), uint8(0), uint8(2))
	f.Add(frameOf(f, framePMFs, true), uint8(3), uint8(4))
	f.Fuzz(func(t *testing.T, body []byte, count, k uint8) {
		resp, err := decodeEvalFrame(body, int(count), int(k), false)
		if err != nil {
			if resp.PMFs != nil {
				t.Fatalf("error %v came with %d PMFs", err, len(resp.PMFs))
			}
			return
		}
		if len(resp.PMFs) != int(count) {
			t.Fatalf("accepted %d PMFs, want %d", len(resp.PMFs), count)
		}
		for i, v := range resp.PMFs {
			if len(v) < 1 || len(v) > int(k)+1 {
				t.Fatalf("PMF %d has %d cells at k=%d", i, len(v), k)
			}
		}
		again, err := appendEvalFrame(nil, &resp, false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("accepted frame does not re-encode to itself:\n%x\n%x", body, again)
		}
	})
}

// badWorker places slices through a real Worker and answers evals with the
// real frame passed through mangle.
func badWorker(t *testing.T, mangle func(w http.ResponseWriter, frame []byte)) *httptest.Server {
	t.Helper()
	real := NewWorker(nil)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != evalPath {
			real.ServeHTTP(rw, r)
			return
		}
		rec := httptest.NewRecorder()
		real.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			t.Errorf("real worker answered %d: %s", rec.Code, rec.Body)
		}
		mangle(rw, rec.Body.Bytes())
	}))
	t.Cleanup(srv.Close)
	return srv
}

// failsJob runs one batched fan-out over srv and checks that it yields no
// PMFs and cancels the job with an RPCError whose message contains want.
func failsJob(t *testing.T, srv *httptest.Server, want string) {
	t.Helper()
	c, err := NewClient([]string{srv.URL}, 2*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Place(context.Background(), "t", testDB(t), 2); err != nil {
		t.Fatal(err)
	}
	jobCtx, fail := context.WithCancelCause(context.Background())
	defer fail(nil)
	sess, err := c.Kernel(jobCtx, fail, "t")
	if err != nil {
		t.Fatal(err)
	}
	qs := []Query{{Items: itemset.FromInts(0), Ext: 1}, {Ext: 2}}
	if out, ok := sess.TailPMFs(qs, 2); ok || out != nil {
		t.Fatalf("fan-out over a bad worker: ok=%v out=%v, want no PMFs", ok, out)
	}
	var rpcErr *RPCError
	if cause := context.Cause(jobCtx); !errors.As(cause, &rpcErr) || rpcErr.Op != OpPMF {
		t.Fatalf("job cause = %v, want a pmf *RPCError", cause)
	} else if !strings.Contains(rpcErr.Error(), want) {
		t.Fatalf("job cause %q does not mention %q", rpcErr, want)
	}
}

// TestSessionRejectsBadFrames: a 200 whose frame is truncated, over-long,
// carries the wrong PMF count or trailing garbage fails the job with an
// RPCError and never yields a partial PMF.
func TestSessionRejectsBadFrames(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		mangle     func([]byte) []byte
	}{
		{"truncated", "truncated", func(b []byte) []byte { return b[:len(b)-3] }},
		{"trailing garbage", "trailing", func(b []byte) []byte { return append(b, 0) }},
		{"wrong count", "want 2", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[24:], 1)
			return b
		}},
		{"over the cap", "exceeds", func(b []byte) []byte { return append(b, make([]byte, 1<<20)...) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := badWorker(t, func(rw http.ResponseWriter, frame []byte) {
				rw.Header().Set("Content-Type", "application/octet-stream")
				_, _ = rw.Write(tc.mangle(frame))
			})
			failsJob(t, srv, tc.want)
		})
	}
}
