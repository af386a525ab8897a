package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/probdata/pfcim/internal/bitset"
	"github.com/probdata/pfcim/internal/gen"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/poibin"
	"github.com/probdata/pfcim/internal/shard"
	"github.com/probdata/pfcim/internal/uncertain"
)

// oracleClauses builds the extension events of Definition 4.1 for X with
// tidset tids straight from the definition, one item at a time, over the
// plain tid loop: count |tids ∧ tids(e)|; dead when it equals |tids|; no
// clause below minSup; otherwise the absence product Π(1−p) over
// tids \ tids(e) with the 1e-15 cut-off, folded per shard range on sharded
// runs, times Pr_F(X+e). The tail uses the miner's arithmetic: the
// uncertain tuples' tail at minSup − c unsharded (c = certain tuples), the
// per-range PMFTrunc fold sharded.
func oracleClauses(db *uncertain.DB, x itemset.Itemset, tids *bitset.Bitset, minSup, shards int) (items []itemset.Item, probs []float64, slack float64, dead bool) {
	idx := db.Index()
	p := db.Probs()
	n := db.N()
	l := shard.Layout{N: 1, Total: n}
	if shards >= 2 {
		l.N = shards
	}
	count := tids.Count()
	var s poibin.Scratch
	for _, e := range idx.Items {
		if x.Contains(e) {
			continue
		}
		te := idx.Tidsets[e]
		cnt := 0
		for tid := 0; tid < n; tid++ {
			if tids.Test(tid) && te.Test(tid) {
				cnt++
			}
		}
		if cnt == count {
			return nil, nil, 0, true
		}
		if cnt < minSup {
			continue
		}
		absent := 1.0
		for i := 0; i < l.N && absent >= 1e-15; i++ {
			lo, hi := l.Bounds(i)
			part := 1.0
			for tid := lo; tid < hi && part >= 1e-15; tid++ {
				if tids.Test(tid) && !te.Test(tid) {
					part *= 1 - p[tid]
				}
			}
			absent *= part
		}
		if absent < 1e-15 {
			slack += 1e-15
			continue
		}
		var tail float64
		if l.N == 1 {
			var u []float64
			c := 0
			for tid := 0; tid < n; tid++ {
				if tids.Test(tid) && te.Test(tid) {
					if p[tid] == 1 {
						c++
					} else {
						u = append(u, p[tid])
					}
				}
			}
			tail = poibin.Tail(u, minSup-c)
		} else {
			parts := make([][]float64, l.N)
			for i := range parts {
				lo, hi := l.Bounds(i)
				var v []float64
				for tid := lo; tid < hi; tid++ {
					if tids.Test(tid) && te.Test(tid) {
						v = append(v, p[tid])
					}
				}
				parts[i] = s.PMFTrunc(v, minSup)
			}
			tail = shard.TailParts(&s, parts, minSup)
		}
		pr := tail * absent
		if pr < 1e-15 {
			slack += pr
			continue
		}
		items = append(items, e)
		probs = append(probs, pr)
	}
	return items, probs, slack, false
}

// checkClauses compares the miner's buildClauses for X against the oracle:
// the same dead verdict, clause items, probability bits and slack bits.
// exts, when non-nil, are extension records for the items from some
// position on, as the enumeration loop leaves them.
func checkClauses(t *testing.T, m *miner, x itemset.Itemset, exts []extension, label string) {
	t.Helper()
	tids := m.db.Index().TidsetOf(x)
	wantItems, wantProbs, wantSlack, wantDead := oracleClauses(m.db, x, tids, m.opts.MinSup, m.opts.Shards)
	clauses, slack, dead := m.buildClauses(x, tids, tids.Count(), exts)
	if dead != wantDead {
		t.Fatalf("%s X=%v: dead = %v, oracle %v", label, x, dead, wantDead)
	}
	if math.Float64bits(slack) != math.Float64bits(wantSlack) {
		t.Fatalf("%s X=%v: slack %v, oracle %v", label, x, slack, wantSlack)
	}
	if len(clauses) != len(wantItems) {
		t.Fatalf("%s X=%v: %d clauses, oracle %d (%v)", label, x, len(clauses), len(wantItems), wantItems)
	}
	for i, c := range clauses {
		if c.item != wantItems[i] || math.Float64bits(c.prob) != math.Float64bits(wantProbs[i]) {
			t.Fatalf("%s X=%v clause %d: (%v, %v), oracle (%v, %v)", label, x, i, c.item, c.prob, wantItems[i], wantProbs[i])
		}
		want := bitset.And(tids, m.db.Index().Tidsets[c.item])
		if !bitset.Equal(c.b, want) {
			t.Fatalf("%s X=%v clause %d: tidset is not tids ∧ tids(%v)", label, x, i, c.item)
		}
	}
	for _, c := range clauses {
		if c.owned {
			m.putBuf(c.b)
		}
	}
}

// oracleExts builds the extension records an enumeration node at X would
// hand to evaluate for the supported items from position from on; every
// other record keeps its exact tail, the rest carry none (as after a
// Chernoff–Hoeffding prune), so both kinds are covered.
func oracleExts(m *miner, x itemset.Itemset, tids *bitset.Bitset, from int) []extension {
	var exts []extension
	for i := from; i < len(m.allItems); i++ {
		e := m.allItems[i]
		if x.Contains(e) {
			continue
		}
		b := bitset.New(m.db.N())
		rec := extension{item: e, cnt: bitset.AndInto(b, tids, m.allTids[i])}
		if rec.cnt >= m.opts.MinSup {
			rec.tids = b
			if i%2 == 0 {
				rec.prF, rec.hasPrF = m.tailCompute(b, nil, x, e), true
			}
		}
		exts = append(exts, rec)
	}
	return exts
}

// lowProbDB gives each row of data a small existence probability in
// [0.02, 0.12), except that about one row in twenty is certain. Absence
// products over such tuples stay above 1e-15 across long differences, so
// many clauses survive the screens.
func lowProbDB(data []itemset.Itemset, seed int64) *uncertain.DB {
	rng := rand.New(rand.NewSource(seed))
	trans := make([]uncertain.Transaction, len(data))
	for i, items := range data {
		p := 0.02 + 0.1*rng.Float64()
		if rng.Intn(20) == 0 {
			p = 1
		}
		trans[i] = uncertain.Transaction{Items: items, Prob: p}
	}
	return uncertain.MustNewDB(trans)
}

// TestBuildClausesOracle checks buildClauses against Definition 4.1 built
// directly, over seeded databases with certain tuples — two certain-heavy
// ones (clamped Gaussian probabilities, about a quarter of the tuples
// certain) and one of low probabilities where many clauses survive — with
// and without extension records, under the auto and compressed tidset
// forms, unsharded and at 2 and 3 shards.
func TestBuildClausesOracle(t *testing.T) {
	cases := []struct {
		db     *uncertain.DB
		minSup int
	}{
		{gen.AssignGaussian(gen.MushroomLike(0.02, 5), 0.5, 0.5, 6), 40},
		{gen.AssignGaussian(gen.Quest(gen.QuestConfig{NumTrans: 300, NumItems: 30, AvgTransLen: 6, AvgPatternLen: 3, Seed: 7}), 0.5, 0.5, 8), 30},
		{lowProbDB(gen.MushroomLike(0.02, 10), 11), 5},
	}
	rng := rand.New(rand.NewSource(9))
	checked, withClauses, deadSeen := 0, 0, 0
	for di, tc := range cases {
		db, minSup := tc.db, tc.minSup
		if db.Stats().CertainTuples == 0 {
			t.Fatalf("db %d has no certain tuple", di)
		}
		for _, mode := range []TidsetMode{TidsetsAuto, TidsetsCompressed} {
			for _, shards := range []int{0, 2, 3} {
				opts, err := Options{MinSup: minSup, PFCT: 0.5, Tidsets: mode, Shards: shards}.normalize()
				if err != nil {
					t.Fatal(err)
				}
				m := newMiner(nil, db, opts)
				for trial := 0; trial < 60; trial++ {
					// X: one to three random supported items, closed on odd
					// trials (every item whose tidset covers X's joins it),
					// so that X is not dead and its clauses reach the
					// absence screen and the tails.
					var picks []itemset.Item
					for k := 1 + rng.Intn(3); k > 0; k-- {
						picks = append(picks, m.allItems[rng.Intn(len(m.allItems))])
					}
					tids := db.Index().TidsetOf(itemset.New(picks...))
					if tids.Count() < minSup {
						continue
					}
					if trial%2 == 1 {
						for i, e := range m.allItems {
							if bitset.IsSubset(tids, m.allTids[i]) {
								picks = append(picks, e)
							}
						}
					}
					x := itemset.New(picks...)
					label := "db" + string(rune('0'+di))
					checkClauses(t, m, x, nil, label)
					checkClauses(t, m, x, oracleExts(m, x, tids, rng.Intn(len(m.allItems))), label+" exts")
					items, _, _, dead := oracleClauses(db, x, tids, minSup, shards)
					checked++
					if dead {
						deadSeen++
					} else if len(items) > 0 {
						withClauses++
					}
				}
			}
		}
	}
	t.Logf("%d itemsets: %d with clauses, %d dead", checked, withClauses, deadSeen)
	if checked == 0 || withClauses == 0 || deadSeen == 0 {
		t.Fatalf("coverage: %d itemsets, %d with clauses, %d dead; want all > 0", checked, withClauses, deadSeen)
	}
}

// TestAbsenceScreenCertainTuple pins the certain-tuple screen at its two
// edges, unsharded and sharded: a certain tuple that is the only tuple in
// tids \ tids(e), and one that follows tuples whose product has already
// fallen below 1e-15. Both clauses are negligible and each adds exactly
// 1e-15 to the slack, while the clause whose difference is one p = 0.5
// tuple is kept.
func TestAbsenceScreenCertainTuple(t *testing.T) {
	// Item 0 is in every tuple; X = {0}. Item 1 misses only tid 0, which
	// is certain. Item 2 misses tids 1..5: four near-certain tuples whose
	// product (1e-4)^4 is already below 1e-15, then certain tid 5. Item 3
	// misses only tid 70 (p = 0.5), so its clause is kept, and no item
	// covers X.
	var trans []uncertain.Transaction
	add := func(p float64, items ...int) {
		trans = append(trans, uncertain.Transaction{Items: itemset.FromInts(items...), Prob: p})
	}
	add(1, 0, 2, 3) // tid 0
	for tid := 1; tid < 5; tid++ {
		add(1-1e-4, 0, 1, 3)
	}
	add(1, 0, 1, 3) // tid 5
	for tid := 6; tid < 70; tid++ {
		add(0.9, 0, 1, 2, 3)
	}
	add(0.5, 0, 1, 2) // tid 70
	db := uncertain.MustNewDB(trans)
	x := itemset.FromInts(0)
	tids := db.Index().TidsetOf(x)
	for _, mode := range []TidsetMode{TidsetsAuto, TidsetsCompressed} {
		for _, shards := range []int{0, 2, 3} {
			opts, err := Options{MinSup: 10, PFCT: 0.5, Tidsets: mode, Shards: shards}.normalize()
			if err != nil {
				t.Fatal(err)
			}
			m := newMiner(nil, db, opts)
			for _, e := range []int{1, 2} {
				b := db.Index().Tidsets[itemset.Item(e)]
				if _, neg := m.absentFactor(tids, b); !neg {
					t.Errorf("mode %v shards %d item %d: absence product not negligible", mode, shards, e)
				}
			}
			checkClauses(t, m, x, nil, "screen")
			clauses, slack, dead := m.buildClauses(x, tids, tids.Count(), nil)
			if dead || len(clauses) != 1 || clauses[0].item != 3 || slack != 2e-15 {
				t.Errorf("mode %v shards %d: dead %v, %d clauses, slack %v; want item 3 kept and two dropped", mode, shards, dead, len(clauses), slack)
			}
			for _, c := range clauses {
				if c.owned {
					m.putBuf(c.b)
				}
			}
		}
	}
}
