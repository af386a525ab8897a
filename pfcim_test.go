package pfcim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"strings"
	"testing"

	pfcim "github.com/probdata/pfcim"
)

func ExampleMine() {
	db := pfcim.PaperExample()
	res, err := pfcim.Mine(db, pfcim.Options{MinSup: 2, PFCT: 0.8, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res.Itemsets {
		fmt.Printf("%v Pr_FC=%.4f\n", r.Items, r.Prob)
	}
	// Output:
	// {a b c} Pr_FC=0.8754
	// {a b c d} Pr_FC=0.8100
}

func ExampleMineFrequent() {
	db := pfcim.PaperExample()
	pfis, err := pfcim.MineFrequent(db, pfcim.FrequentOptions{MinSup: 2, PFT: 0.8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(pfis), "probabilistic frequent itemsets")
	// Output:
	// 15 probabilistic frequent itemsets
}

func ExampleAbsoluteMinSup() {
	fmt.Println(pfcim.AbsoluteMinSup(1000, 0.4))
	// Output:
	// 400
}

func TestFacadeRoundtrip(t *testing.T) {
	db := pfcim.MustNewDatabase([]pfcim.Transaction{
		{Items: pfcim.NewItemset(3, 1, 2), Prob: 0.5},
		{Items: pfcim.NewItemset(1, 2), Prob: 1.0},
	})
	var buf bytes.Buffer
	if err := pfcim.WriteDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := pfcim.ReadDatabase(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 2 {
		t.Fatalf("roundtrip lost transactions: %d", back.N())
	}
}

func TestFacadeExactMiners(t *testing.T) {
	db := pfcim.PaperExample()
	d := pfcim.ExactData(db)
	fi := pfcim.MineFrequentExact(d, 2)
	fci := pfcim.MineClosedExact(d, 2)
	if len(fi) != 15 || len(fci) != 2 {
		t.Errorf("FI=%d (want 15), FCI=%d (want 2)", len(fi), len(fci))
	}
}

func TestFacadeOracles(t *testing.T) {
	db := pfcim.PaperExample()
	abc := pfcim.NewItemset(0, 1, 2)
	fp, err := pfcim.FreqProb(db, abc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fp-0.9726) > 1e-9 {
		t.Errorf("FreqProb = %v", fp)
	}
	fcp, err := pfcim.FreqClosedProb(db, abc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fcp-0.8754) > 1e-9 {
		t.Errorf("FreqClosedProb = %v", fcp)
	}
}

func TestFacadeGenerators(t *testing.T) {
	data := pfcim.GenerateMushroomLike(0.01, 1)
	if len(data) == 0 {
		t.Fatal("no mushroom data")
	}
	qd := pfcim.GenerateQuest(pfcim.QuestT20I10D30KP40(0.005, 2))
	if len(qd) != 150 {
		t.Fatalf("quest scale 0.005 gave %d transactions", len(qd))
	}
	db := pfcim.AssignGaussian(qd, 0.8, 0.1, 3)
	if db.N() != len(qd) {
		t.Fatal("AssignGaussian dropped transactions")
	}
}

// TestEndToEnd mines a generated uncertain dataset through the public API
// and sanity-checks the result against the probabilistic frequent set.
func TestEndToEnd(t *testing.T) {
	data := pfcim.GenerateMushroomLike(0.03, 5)
	db := pfcim.AssignGaussian(data, 0.7, 0.2, 6)
	ms := pfcim.AbsoluteMinSup(db.N(), 0.3)

	res, err := pfcim.Mine(db, pfcim.Options{MinSup: ms, PFCT: 0.8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pfis, err := pfcim.MineFrequent(db, pfcim.FrequentOptions{MinSup: ms, PFT: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	pfiKeys := map[string]float64{}
	for _, p := range pfis {
		pfiKeys[p.Items.Key()] = p.FreqProb
	}
	if len(res.Itemsets) == 0 {
		t.Fatal("no results — dataset or thresholds degenerate")
	}
	if len(res.Itemsets) > len(pfis) {
		t.Fatalf("PFCI (%d) cannot outnumber PFI (%d)", len(res.Itemsets), len(pfis))
	}
	for _, r := range res.Itemsets {
		prF, ok := pfiKeys[r.Items.Key()]
		if !ok {
			t.Fatalf("result %v is not probabilistically frequent", r.Items)
		}
		if r.Prob > prF+1e-9 {
			t.Fatalf("result %v: Pr_FC %v > Pr_F %v", r.Items, r.Prob, prF)
		}
	}
	// The BFS framework must agree on the itemset set.
	bfs, err := pfcim.Mine(db, pfcim.Options{MinSup: ms, PFCT: 0.8, Seed: 7, Search: pfcim.BFS})
	if err != nil {
		t.Fatal(err)
	}
	if len(bfs.Itemsets) != len(res.Itemsets) {
		t.Fatalf("BFS found %d itemsets, DFS %d", len(bfs.Itemsets), len(res.Itemsets))
	}
}

func TestFacadeExtendedAPI(t *testing.T) {
	db := pfcim.PaperExample()
	opts := pfcim.FrequentOptions{MinSup: 2, PFT: 0.8}

	bu, err := pfcim.MineFrequent(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := pfcim.CountFrequent(db, opts); err != nil || got != len(bu) {
		t.Errorf("CountFrequent = %d (err %v), want %d", got, err, len(bu))
	}
	maxes, err := pfcim.MaximalFrequent(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(maxes) != 1 {
		t.Errorf("MaximalFrequent = %v", maxes)
	}
	// Uniform validation: every FrequentOptions consumer rejects bad
	// thresholds with an error instead of mining garbage.
	if _, err := pfcim.MineFrequent(db, pfcim.FrequentOptions{MinSup: -1, PFT: 0.5}); err == nil {
		t.Error("MineFrequent accepted negative MinSup")
	}
	if _, err := pfcim.MineFrequent(db, pfcim.FrequentOptions{MinSup: 2, PFT: 1.2}); err == nil {
		t.Error("MineFrequent accepted PFT > 1")
	}
	if _, err := pfcim.MaximalFrequent(db, pfcim.FrequentOptions{MinSup: 2, PFT: -0.1}); err == nil {
		t.Error("MaximalFrequent accepted negative PFT")
	}
	if _, err := pfcim.CountFrequent(db, pfcim.FrequentOptions{MinSup: 2, PFT: 1}); err == nil {
		t.Error("CountFrequent accepted PFT = 1 (no itemset can exceed it)")
	}
	if canon, err := pfcim.CanonicalFrequentOptions(pfcim.FrequentOptions{PFT: 0.3, DisableCH: true}); err != nil || canon.MinSup != 1 || canon.DisableCH {
		t.Errorf("CanonicalFrequentOptions = %+v err %v, want MinSup 1, DisableCH cleared", canon, err)
	}
	if es := pfcim.MineExpectedSupport(db, 2.0); len(es) != 7 {
		t.Errorf("MineExpectedSupport found %d itemsets, want the 7 non-empty subsets of abc", len(es))
	}
	if psup := pfcim.ProbabilisticSupport(db, pfcim.NewItemset(0, 1, 2), 0.8); psup < 2 {
		t.Errorf("ProbabilisticSupport = %d", psup)
	}
	if got := pfcim.MineProbSupportClosed(db, 2, 0.8); len(got) == 0 {
		t.Error("MineProbSupportClosed returned nothing")
	}
	if ext := pfcim.PaperExampleExtended(); ext.N() != 6 {
		t.Errorf("extended example has %d tuples", ext.N())
	}

	abc := pfcim.NewItemset(0, 1, 2)
	exact, err := pfcim.ExactFreqClosedProb(db, abc, 2)
	if err != nil || math.Abs(exact-0.8754) > 1e-9 {
		t.Errorf("ExactFreqClosedProb = %v, %v", exact, err)
	}
	est, err := pfcim.EstimateFreqClosedProb(db, abc, 2, 0.05, 0.05, 3)
	if err != nil || math.Abs(est-0.8754) > 0.05 {
		t.Errorf("EstimateFreqClosedProb = %v, %v", est, err)
	}
	ws := pfcim.NewWorldSampler(db, 4)
	got, err := ws.FreqClosedProb(abc, 2, 50000)
	if err != nil || math.Abs(got-0.8754) > 0.02 {
		t.Errorf("WorldSampler = %v, %v", got, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pfcim.MineContext(ctx, db, pfcim.Options{MinSup: 2, PFCT: 0.8}); err == nil {
		t.Error("cancelled MineContext should fail")
	}
}

func TestFacadeParallelMine(t *testing.T) {
	data := pfcim.GenerateMushroomLike(0.03, 5)
	db := pfcim.AssignGaussian(data, 0.7, 0.2, 6)
	ms := pfcim.AbsoluteMinSup(db.N(), 0.3)
	serial, err := pfcim.Mine(db, pfcim.Options{MinSup: ms, PFCT: 0.8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	par, err := pfcim.Mine(db, pfcim.Options{MinSup: ms, PFCT: 0.8, Seed: 7, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Itemsets) != len(par.Itemsets) {
		t.Errorf("parallel result differs: %d vs %d", len(par.Itemsets), len(serial.Itemsets))
	}
}

func TestFacadeMineSweep(t *testing.T) {
	db := pfcim.PaperExample()
	base := pfcim.Options{MinSup: 2, PFCT: 0.8, Seed: 1}
	points := []pfcim.SweepPoint{{PFCT: 0.5}, {PFCT: 0.8}, {PFCT: 0.9}}
	res, err := pfcim.MineSweep(context.Background(), db, points, base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FullEnumerations != 1 {
		t.Errorf("FullEnumerations = %d, want 1 for a pure pfct sweep", res.Stats.FullEnumerations)
	}
	for i, pr := range res.Points {
		direct, err := pfcim.Mine(db, pr.Options)
		if err != nil {
			t.Fatal(err)
		}
		got := mustJSONBytes(t, pr.CoreJSON().Itemsets)
		want := mustJSONBytes(t, direct.JSON().Itemsets)
		if !bytes.Equal(got, want) {
			t.Errorf("point %d: sweep itemsets differ from independent Mine", i)
		}
	}
}

func TestFacadeMineTopKContext(t *testing.T) {
	db := pfcim.PaperExample()
	top, err := pfcim.MineTopKContext(context.Background(), db, 2, 1, pfcim.Options{Seed: 1})
	if err != nil || len(top) != 1 {
		t.Fatalf("MineTopKContext = %v, %v", top, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pfcim.MineTopKContext(ctx, db, 2, 1, pfcim.Options{Seed: 1}); err == nil {
		t.Error("cancelled MineTopKContext should fail")
	}
}

func mustJSONBytes(t *testing.T, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFacadeWindowMiner(t *testing.T) {
	w, err := pfcim.NewWindow(8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pfcim.NewWindowMiner(w, pfcim.Options{MinSup: 2, PFCT: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range pfcim.PaperExample().Transactions() {
		if err := m.Push(tr); err != nil {
			t.Fatal(err)
		}
	}
	res, diff, err := pfcim.MineWindowContext(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Itemsets) != 2 || len(diff.Added) != 2 {
		t.Fatalf("Table II window mine: %d itemsets, diff %+v", len(res.Itemsets), diff)
	}
	// Round two without pushes: full reuse, empty diff.
	res2, diff2, err := pfcim.MineWindowContext(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !diff2.Empty() || diff2.Unchanged != 2 || res2.Stats.SubtreesReused == 0 {
		t.Fatalf("no-change round: diff %+v stats %+v", diff2, res2.Stats)
	}
	// The unbounded window is append-only.
	u := pfcim.NewUnboundedWindow()
	for i := 0; i < 50; i++ {
		if _, evicted, err := u.Push(pfcim.Transaction{Items: pfcim.NewItemset(i % 3), Prob: 0.5}); err != nil || evicted {
			t.Fatalf("unbounded push %d: evicted=%v err=%v", i, evicted, err)
		}
	}
	if u.Len() != 50 {
		t.Fatalf("unbounded Len = %d", u.Len())
	}
}
