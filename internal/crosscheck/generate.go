// Package crosscheck is the differential and metamorphic verification
// harness for the whole MPFCI stack. It pairs a seeded generator of shaped
// random uncertain databases with two kinds of oracle checks:
//
//   - Differential: on databases small enough for internal/world's 2ⁿ
//     possible-world enumeration, the miner's full result set must equal
//     the exact Pr_FC > pfct set, probabilities and Lemma 4.4 sandwiches
//     included (Theorem 3.1 quantities are #P-hard, so this is the only
//     ground truth there is).
//   - Invariants: metamorphic properties that hold even on databases far
//     beyond the oracle — the Lemma 4.4 sandwich, threshold monotonicity,
//     byte-identical determinism across execution knobs, and sweep-derived
//     vs independently mined byte-identity.
//
// Every entry point is driven by a (Shape, Seed) pair so any failure
// reproduces from two small integers; errors embed them. The package backs
// the go test property suite, the FuzzMine fuzz target, and the
// cmd/crosscheck soak binary.
package crosscheck

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/uncertain"
)

// Shape selects a family of random databases. The families are chosen to
// stress different miner paths: dense data exercises subset/superset
// pruning and the tail memo, sparse data the candidate phase and
// Chernoff-Hoeffding pruning, correlated data the clause system and union
// machinery (patterns make extension events probable), and degenerate data
// the boundary cases — certain tuples (p = 1), near-impossible tuples,
// duplicate transactions, and single-item tails.
type Shape string

const (
	ShapeDense      Shape = "dense"
	ShapeSparse     Shape = "sparse"
	ShapeCorrelated Shape = "correlated"
	ShapeDegenerate Shape = "degenerate"
	// ShapeSparseWide models the million-transaction regime at crosscheck
	// scale: a handful of high-frequency items over a wide universe of rare
	// ones, so at representation sizes per-item tidsets mix the dense and
	// compressed forms and frequent-item tails exceed the convolution
	// kernel's leaf size. Its transaction count is drawn from the upper
	// half of the bound so large cases actually reach those paths.
	ShapeSparseWide Shape = "sparsewide"
	// ShapeGaussian is the sparsewide item structure with the paper's
	// probability assignment: N(0.5, 0.5) clamped to [0.01, 1], so about a
	// quarter of the tuples are certain (p = 1) and about a quarter sit at
	// the 0.01 floor. The miner counts certain tuples by popcount instead
	// of gathering them, on dense and compressed tidsets alike; this shape
	// puts many of them in every tidset of both forms.
	ShapeGaussian Shape = "gaussian"
)

// Shapes lists every shape, in the order the soak binary and property
// suite iterate them.
var Shapes = []Shape{ShapeDense, ShapeSparse, ShapeCorrelated, ShapeDegenerate, ShapeSparseWide, ShapeGaussian}

// wide reports whether the shape draws its transaction count from the
// upper half of the bound and runs its representation cases at
// RepMaxTrans, where the auto tidset policy mixes both forms.
func (s Shape) wide() bool { return s == ShapeSparseWide || s == ShapeGaussian }

// ParseShape validates a shape name (the cmd/crosscheck -shape flag).
func ParseShape(s string) (Shape, error) {
	for _, sh := range Shapes {
		if string(sh) == s {
			return sh, nil
		}
	}
	return "", fmt.Errorf("crosscheck: unknown shape %q (want dense, sparse, correlated, degenerate, sparsewide, or gaussian)", s)
}

// GenDB generates a random uncertain database of the given shape with at
// most maxTrans transactions over at most maxItems items, deterministically
// from rng. Both bounds must be ≥ 1; every returned database is non-empty.
func GenDB(shape Shape, rng *rand.Rand, maxTrans, maxItems int) *uncertain.DB {
	if maxTrans < 1 || maxItems < 1 {
		panic(fmt.Sprintf("crosscheck: GenDB bounds must be ≥ 1, got maxTrans=%d maxItems=%d", maxTrans, maxItems))
	}
	n := rng.Intn(maxTrans) + 1
	if shape.wide() {
		n = maxTrans/2 + rng.Intn(maxTrans-maxTrans/2) + 1
		if n > maxTrans {
			n = maxTrans
		}
	}
	var trans []uncertain.Transaction
	switch shape {
	case ShapeSparse:
		trans = genIndependent(rng, n, maxItems, 0.25, func() float64 { return 0.01 + rng.Float64()*0.98 })
	case ShapeCorrelated:
		trans = genCorrelated(rng, n, maxItems)
	case ShapeDegenerate:
		trans = genDegenerate(rng, n, maxItems)
	case ShapeSparseWide:
		trans = genSparseWide(rng, n, maxItems, func() float64 { return 0.05 + rng.Float64()*0.95 })
	case ShapeGaussian:
		sigma := math.Sqrt(0.5)
		trans = genSparseWide(rng, n, maxItems, func() float64 {
			return min(max(rng.NormFloat64()*sigma+0.5, 0.01), 1)
		})
	default: // ShapeDense
		trans = genIndependent(rng, n, maxItems, 0.7, func() float64 { return 0.3 + rng.Float64()*0.7 })
	}
	return uncertain.MustNewDB(trans)
}

// genIndependent draws each item independently with the given inclusion
// rate and tuple probabilities from probFn.
func genIndependent(rng *rand.Rand, n, maxItems int, rate float64, probFn func() float64) []uncertain.Transaction {
	trans := make([]uncertain.Transaction, 0, n)
	for i := 0; i < n; i++ {
		var items []itemset.Item
		for j := 0; j < maxItems; j++ {
			if rng.Float64() < rate {
				items = append(items, itemset.Item(j))
			}
		}
		if len(items) == 0 {
			items = []itemset.Item{itemset.Item(rng.Intn(maxItems))}
		}
		trans = append(trans, uncertain.Transaction{Items: itemset.New(items...), Prob: probFn()})
	}
	return trans
}

// genSparseWide draws a few always-available high-frequency items at rate
// 0.6 and the rest of the universe at a rate targeting ~12 occurrences per
// rare item regardless of n. At n ≥ 1024 the rare tidsets fall under the
// ShouldCompact density threshold while the common ones stay dense, and
// the common items' supports exceed the convolution kernel's 512-leaf.
// Tuple probabilities come from probFn.
func genSparseWide(rng *rand.Rand, n, maxItems int, probFn func() float64) []uncertain.Transaction {
	nCommon := 3
	if nCommon > maxItems {
		nCommon = maxItems
	}
	rare := 12.0 / float64(n)
	if rare > 0.5 {
		rare = 0.5
	}
	trans := make([]uncertain.Transaction, 0, n)
	for i := 0; i < n; i++ {
		var items []itemset.Item
		for j := 0; j < nCommon; j++ {
			if rng.Float64() < 0.6 {
				items = append(items, itemset.Item(j))
			}
		}
		for j := nCommon; j < maxItems; j++ {
			if rng.Float64() < rare {
				items = append(items, itemset.Item(j))
			}
		}
		if len(items) == 0 {
			items = []itemset.Item{itemset.Item(rng.Intn(maxItems))}
		}
		trans = append(trans, uncertain.Transaction{Items: itemset.New(items...), Prob: probFn()})
	}
	return trans
}

// genCorrelated plants 1–3 pattern itemsets; each transaction is a pattern
// plus independent noise, so extension events between pattern items are
// likely and the clause-union machinery (bounds, inclusion–exclusion,
// sampling) sees non-trivial systems.
func genCorrelated(rng *rand.Rand, n, maxItems int) []uncertain.Transaction {
	nPatterns := rng.Intn(3) + 1
	patterns := make([]itemset.Itemset, nPatterns)
	for p := range patterns {
		size := rng.Intn(maxItems) + 1
		var items []itemset.Item
		for j := 0; j < size; j++ {
			items = append(items, itemset.Item(rng.Intn(maxItems)))
		}
		patterns[p] = itemset.New(items...)
	}
	trans := make([]uncertain.Transaction, 0, n)
	for i := 0; i < n; i++ {
		items := patterns[rng.Intn(nPatterns)].Clone()
		for j := 0; j < maxItems; j++ {
			if rng.Float64() < 0.15 {
				items = items.Add(itemset.Item(j))
			}
		}
		trans = append(trans, uncertain.Transaction{Items: items, Prob: 0.05 + rng.Float64()*0.95})
	}
	return trans
}

// genDegenerate mixes the boundary cases the miner's guards exist for:
// certain tuples (p = 1 exactly, so worlds collapse), near-impossible
// tuples (p → 0, exercising the zero-clause slack accounting), exact
// duplicates of earlier transactions (closedness ties), single-item tail
// transactions, and — one draw in eight — a database that is one
// transaction repeated verbatim.
func genDegenerate(rng *rand.Rand, n, maxItems int) []uncertain.Transaction {
	degProb := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 1 // certain tuple
		case 1:
			return 1e-9 + rng.Float64()*1e-6 // nearly impossible tuple
		default:
			return 0.01 + rng.Float64()*0.98
		}
	}
	if rng.Intn(8) == 0 {
		// The whole database is one transaction repeated.
		var items []itemset.Item
		for j := 0; j < maxItems; j++ {
			if rng.Float64() < 0.6 {
				items = append(items, itemset.Item(j))
			}
		}
		if len(items) == 0 {
			items = []itemset.Item{0}
		}
		base := itemset.New(items...)
		trans := make([]uncertain.Transaction, n)
		for i := range trans {
			trans[i] = uncertain.Transaction{Items: base.Clone(), Prob: degProb()}
		}
		return trans
	}
	trans := make([]uncertain.Transaction, 0, n)
	for i := 0; i < n; i++ {
		if len(trans) > 0 && rng.Float64() < 0.3 {
			// Duplicate an earlier transaction (fresh probability).
			dup := trans[rng.Intn(len(trans))]
			trans = append(trans, uncertain.Transaction{Items: dup.Items.Clone(), Prob: degProb()})
			continue
		}
		if rng.Float64() < 0.25 {
			// Single-item tail.
			trans = append(trans, uncertain.Transaction{
				Items: itemset.New(itemset.Item(rng.Intn(maxItems))),
				Prob:  degProb(),
			})
			continue
		}
		var items []itemset.Item
		for j := 0; j < maxItems; j++ {
			if rng.Float64() < 0.55 {
				items = append(items, itemset.Item(j))
			}
		}
		if len(items) == 0 {
			items = []itemset.Item{itemset.Item(rng.Intn(maxItems))}
		}
		trans = append(trans, uncertain.Transaction{Items: itemset.New(items...), Prob: degProb()})
	}
	return trans
}
