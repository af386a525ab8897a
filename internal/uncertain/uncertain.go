// Package uncertain implements the tuple-uncertainty transaction database
// model of the paper: each transaction T_i carries an itemset and an
// existence probability p_i, and transactions exist independently. The
// package provides the vertical (item → tidset) index the miners run on,
// dataset characteristics (Table VIII), and a plain-text interchange format.
package uncertain

import (
	"fmt"
	"sort"
	"sync"

	"github.com/probdata/pfcim/internal/bitset"
	"github.com/probdata/pfcim/internal/itemset"
)

// Transaction is one uncertain tuple <tid, itemset, probability>.
type Transaction struct {
	Items itemset.Itemset
	Prob  float64
}

// DB is an uncertain transaction database (the paper's UTD). Construct one
// with NewDB; the vertical index is built lazily by Index.
type DB struct {
	trans []Transaction
	items itemset.Itemset // sorted universe of items that occur

	indexOnce sync.Once
	index     *Index
}

// NewDB validates and stores the given transactions. Probabilities must lie
// in (0, 1]; a zero-probability tuple can never appear in any world and is
// rejected rather than silently kept.
func NewDB(trans []Transaction) (*DB, error) {
	universe := map[itemset.Item]struct{}{}
	for i, t := range trans {
		if t.Prob <= 0 || t.Prob > 1 {
			return nil, fmt.Errorf("uncertain: transaction %d has probability %v outside (0,1]", i, t.Prob)
		}
		if len(t.Items) == 0 {
			return nil, fmt.Errorf("uncertain: transaction %d is empty", i)
		}
		for _, it := range t.Items {
			universe[it] = struct{}{}
		}
	}
	items := make(itemset.Itemset, 0, len(universe))
	for it := range universe {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	cp := make([]Transaction, len(trans))
	for i, t := range trans {
		cp[i] = Transaction{Items: t.Items.Clone(), Prob: t.Prob}
	}
	return &DB{trans: cp, items: items}, nil
}

// MustNewDB is NewDB that panics on error, for tests and fixtures.
func MustNewDB(trans []Transaction) *DB {
	db, err := NewDB(trans)
	if err != nil {
		panic(err)
	}
	return db
}

// N returns the number of transactions.
func (db *DB) N() int { return len(db.trans) }

// Transaction returns tuple i.
func (db *DB) Transaction(i int) Transaction { return db.trans[i] }

// Prob returns the existence probability of tuple i.
func (db *DB) Prob(i int) float64 { return db.trans[i].Prob }

// Items returns the sorted universe of items occurring in the database.
func (db *DB) Items() itemset.Itemset { return db.items.Clone() }

// Probs returns the existence probabilities indexed by tid.
func (db *DB) Probs() []float64 {
	out := make([]float64, len(db.trans))
	for i, t := range db.trans {
		out[i] = t.Prob
	}
	return out
}

// Tidset returns the set of transaction ids whose itemset contains X
// (transactions that *possibly* contain X). |Tidset(X)| is the paper's
// X.count (Definition 4.2).
func (db *DB) Tidset(x itemset.Itemset) *bitset.Bitset {
	b := bitset.New(len(db.trans))
	for i, t := range db.trans {
		if itemset.IsSubset(x, t.Items) {
			b.Set(i)
		}
	}
	return b
}

// Count returns the paper's X.count: the number of transactions containing X.
func (db *DB) Count(x itemset.Itemset) int {
	c := 0
	for _, t := range db.trans {
		if itemset.IsSubset(x, t.Items) {
			c++
		}
	}
	return c
}

// ExpectedSupport returns Σ_{T ⊇ X} p_T, the expected-support model's
// estimate of sup(X).
func (db *DB) ExpectedSupport(x itemset.Itemset) float64 {
	s := 0.0
	for _, t := range db.trans {
		if itemset.IsSubset(x, t.Items) {
			s += t.Prob
		}
	}
	return s
}

// Index is the vertical representation: one tidset per item, in the order
// of Items(). Every miner in this repository works from an Index.
type Index struct {
	DB       *DB
	Items    itemset.Itemset // sorted universe
	Tidsets  map[itemset.Item]*bitset.Bitset
	ItemPos  map[itemset.Item]int // position of each item in Items
	AllTrans *bitset.Bitset       // tidset of the empty itemset (all tids)
	// Certain holds the tids whose probability is exactly 1, always in the
	// dense form. A certain tuple's generating-function factor is z, a
	// shift of the support distribution, so the miner counts these tuples
	// by popcount instead of gathering their probabilities.
	Certain *bitset.Bitset
}

// Index returns the vertical index, building it on first use. The index is
// immutable once built (miners clone tidsets before intersecting), so one
// instance is shared by every concurrent run over the same DB — repeated
// mining of one dataset (sweeps, daemon jobs) pays for index construction
// once.
func (db *DB) Index() *Index {
	db.indexOnce.Do(func() { db.index = db.buildIndex() })
	return db.index
}

func (db *DB) buildIndex() *Index {
	idx := &Index{
		DB:      db,
		Items:   db.Items(),
		Tidsets: make(map[itemset.Item]*bitset.Bitset, len(db.items)),
		ItemPos: make(map[itemset.Item]int, len(db.items)),
	}
	n := len(db.trans)
	for pos, it := range idx.Items {
		idx.ItemPos[it] = pos
	}
	// Two passes: count each item's occurrences, then build its tidset
	// directly in its final representation — sparse id lists for
	// low-density items, dense words otherwise. On a high-n sparse
	// database (e.g. the 10⁶-transaction Quest preset) this avoids ever
	// materializing |items|·n/8 bytes of mostly-empty words.
	counts := make([]int, len(idx.Items))
	for _, t := range db.trans {
		for _, it := range t.Items {
			counts[idx.ItemPos[it]]++
		}
	}
	sparseIDs := make(map[itemset.Item][]uint32)
	for pos, it := range idx.Items {
		if bitset.ShouldCompact(counts[pos], n) {
			sparseIDs[it] = make([]uint32, 0, counts[pos])
		} else {
			idx.Tidsets[it] = bitset.New(n)
		}
	}
	for tid, t := range db.trans {
		for _, it := range t.Items {
			if ids, ok := sparseIDs[it]; ok {
				if len(ids) == 0 || ids[len(ids)-1] != uint32(tid) {
					sparseIDs[it] = append(ids, uint32(tid))
				}
				continue
			}
			idx.Tidsets[it].Set(tid)
		}
	}
	for it, ids := range sparseIDs {
		idx.Tidsets[it] = bitset.NewSparse(n, ids)
	}
	idx.AllTrans = bitset.New(n)
	idx.AllTrans.SetAll()
	idx.Certain = bitset.New(n)
	for tid, t := range db.trans {
		if t.Prob == 1 {
			idx.Certain.Set(tid)
		}
	}
	return idx
}

// TidsetOf intersects the per-item tidsets to produce the tidset of an
// arbitrary itemset. The empty itemset maps to all transactions.
func (ix *Index) TidsetOf(x itemset.Itemset) *bitset.Bitset {
	out := ix.AllTrans.Clone()
	for _, it := range x {
		ts, ok := ix.Tidsets[it]
		if !ok {
			out.Reset()
			return out
		}
		bitset.AndInto(out, out, ts)
	}
	return out
}

// ProbsOf returns the existence probabilities of the transactions in ts, in
// ascending tid order. sup(X) is the Poisson-binomial sum of Bernoulli
// draws with these parameters.
func (ix *Index) ProbsOf(ts *bitset.Bitset) []float64 {
	out := make([]float64, 0, ts.Count())
	ts.ForEach(func(tid int) bool {
		out = append(out, ix.DB.trans[tid].Prob)
		return true
	})
	return out
}

// Stats summarizes a database in the shape of the paper's Table VIII.
type Stats struct {
	NumTransactions int
	NumItems        int
	AvgLength       float64
	MaxLength       int
	MeanProb        float64
	CertainTuples   int // tuples with probability exactly 1
}

// Stats computes dataset characteristics.
func (db *DB) Stats() Stats {
	s := Stats{NumTransactions: len(db.trans), NumItems: len(db.items)}
	totalLen := 0
	totalProb := 0.0
	for _, t := range db.trans {
		l := len(t.Items)
		totalLen += l
		if l > s.MaxLength {
			s.MaxLength = l
		}
		totalProb += t.Prob
		if t.Prob == 1 {
			s.CertainTuples++
		}
	}
	if len(db.trans) > 0 {
		s.AvgLength = float64(totalLen) / float64(len(db.trans))
		s.MeanProb = totalProb / float64(len(db.trans))
	}
	return s
}

// PaperExample returns the uncertain database of the paper's Table II
// (items a=0, b=1, c=2, d=3). It is the running example and the canonical
// test oracle: with min_sup = 2, Pr_FC({a b c}) = 0.8754 and
// Pr_FC({a b c d}) = 0.81.
func PaperExample() *DB {
	a, b, c, d := itemset.Item(0), itemset.Item(1), itemset.Item(2), itemset.Item(3)
	return MustNewDB([]Transaction{
		{Items: itemset.New(a, b, c, d), Prob: 0.9}, // T1
		{Items: itemset.New(a, b, c), Prob: 0.6},    // T2
		{Items: itemset.New(a, b, c), Prob: 0.7},    // T3
		{Items: itemset.New(a, b, c, d), Prob: 0.9}, // T4
	})
}

// PaperExampleExtended returns the paper's Table IV database (Table II plus
// T5 = {a b} p=0.4 and T6 = {a} p=0.4), used to contrast the probabilistic-
// support definition of related work with the paper's semantics.
func PaperExampleExtended() *DB {
	a, b := itemset.Item(0), itemset.Item(1)
	base := PaperExample()
	trans := append(base.transactions(),
		Transaction{Items: itemset.New(a, b), Prob: 0.4},
		Transaction{Items: itemset.New(a), Prob: 0.4},
	)
	return MustNewDB(trans)
}

func (db *DB) transactions() []Transaction {
	out := make([]Transaction, len(db.trans))
	copy(out, db.trans)
	return out
}

// Transactions returns a copy of all tuples.
func (db *DB) Transactions() []Transaction { return db.transactions() }

// Certain reports whether every tuple has probability exactly 1, i.e. the
// database is an ordinary exact transaction database.
func (db *DB) Certain() bool {
	for _, t := range db.trans {
		if t.Prob != 1 {
			return false
		}
	}
	return true
}
