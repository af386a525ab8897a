package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"github.com/probdata/pfcim/internal/bitset"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/poibin"
	"github.com/probdata/pfcim/internal/uncertain"
)

// evalMemoEntries bounds the per-shard PMF memo. Each entry holds a
// truncated coefficient vector of ≤ min_sup+1 floats; beyond the cap,
// vectors are still computed but no longer cached. The memo only ever
// serves values that are bit-identical to recomputation, so the cap is a
// pure memory knob.
const evalMemoEntries = 1 << 14

// Evaluator is the per-shard state of one (dataset, shard) pair: the slice
// database, its vertical index, a reusable Poisson-binomial scratch, and a
// shard-local memo of truncated PMFs keyed by (itemset, extension, k).
// An Evaluator is not safe for concurrent use; Worker serializes access per
// slot.
type Evaluator struct {
	Shard int
	Lo    int // global tid of local tid 0

	db    *uncertain.DB
	idx   *uncertain.Index
	probs []float64

	scratch poibin.Scratch
	pmfMemo map[string][]float64

	// Evals and MemoHits count tail-PMF computations and memo hits; the
	// worker reports per-call deltas so a coordinator can aggregate exact
	// totals across shards.
	Evals    int64
	MemoHits int64
}

// NewEvaluator builds shard i's evaluator by slicing db with the layout.
func NewEvaluator(db *uncertain.DB, l Layout, i int) (*Evaluator, error) {
	if err := CheckLayout(l, db.N()); err != nil {
		return nil, err
	}
	sub, err := uncertain.NewDB(Slice(db, l, i))
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", i, err)
	}
	return newEvaluator(sub, l, i), nil
}

// NewEvaluatorFromSlice builds an evaluator directly from a worker's
// received transaction slice.
func NewEvaluatorFromSlice(trans []uncertain.Transaction, l Layout, i int) (*Evaluator, error) {
	lo, hi := l.Bounds(i)
	if len(trans) != hi-lo {
		return nil, fmt.Errorf("shard %d: got %d transactions, layout says %d", i, len(trans), hi-lo)
	}
	sub, err := uncertain.NewDB(trans)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", i, err)
	}
	return newEvaluator(sub, l, i), nil
}

func newEvaluator(sub *uncertain.DB, l Layout, i int) *Evaluator {
	lo, _ := l.Bounds(i)
	return &Evaluator{
		Shard:   i,
		Lo:      lo,
		db:      sub,
		idx:     sub.Index(),
		probs:   sub.Probs(),
		pmfMemo: map[string][]float64{},
	}
}

// Trans returns the number of transactions in the slice.
func (e *Evaluator) Trans() int { return e.db.N() }

// TailPMF returns the truncated-at-k PMF of sup(X) restricted to this
// shard, where X is x plus ext when ext ≥ 0. The returned vector is owned
// by the evaluator (possibly memoized) and must be treated as read-only.
func (e *Evaluator) TailPMF(x itemset.Itemset, ext itemset.Item, k int) []float64 {
	key := pmfKey(x, ext, k)
	if v, ok := e.pmfMemo[key]; ok {
		e.MemoHits++
		return v
	}
	e.Evals++
	probs := e.idx.ProbsOf(e.tidsetOf(x, ext))
	v := e.scratch.PMFTrunc(probs, k)
	out := append([]float64(nil), v...)
	e.scratch.ReleasePMF(v)
	if len(e.pmfMemo) < evalMemoEntries {
		e.pmfMemo[key] = out
	}
	return out
}

// tidsetOf resolves the local tidset of x (plus ext when ext ≥ 0).
func (e *Evaluator) tidsetOf(x itemset.Itemset, ext itemset.Item) *bitset.Bitset {
	if ext >= 0 {
		x = x.Add(ext)
	}
	return e.idx.TidsetOf(x)
}

func pmfKey(x itemset.Itemset, ext itemset.Item, k int) string {
	var sb strings.Builder
	sb.WriteString(x.Key())
	sb.WriteByte('+')
	sb.WriteString(strconv.Itoa(int(ext)))
	sb.WriteByte('@')
	sb.WriteString(strconv.Itoa(k))
	return sb.String()
}

// RenderSlice serializes a transaction slice to the uncertain text format
// and content-hashes the rendering. Both sides of the placement RPC use it
// — the coordinator to ship and fingerprint a slice, the worker to
// acknowledge what it stored — so hash equality proves the worker holds
// exactly the transactions (and bit-exact probabilities: %g round-trips
// float64) the coordinator partitioned.
func RenderSlice(trans []uncertain.Transaction) (text, hash string, err error) {
	db, err := uncertain.NewDB(trans)
	if err != nil {
		return "", "", err
	}
	var sb strings.Builder
	if err := uncertain.Write(&sb, db); err != nil {
		return "", "", err
	}
	text = sb.String()
	sum := sha256.Sum256([]byte(text))
	return text, hex.EncodeToString(sum[:])[:16], nil
}

// HashSlice content-hashes a transaction slice in the uncertain text
// format, so a coordinator can verify a worker holds exactly the slice it
// was sent.
func HashSlice(trans []uncertain.Transaction) (string, error) {
	_, hash, err := RenderSlice(trans)
	return hash, err
}
