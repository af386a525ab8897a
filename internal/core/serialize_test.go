package core

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"github.com/probdata/pfcim/internal/uncertain"
)

func TestCanonicalKeyIgnoresExecutionKnobs(t *testing.T) {
	base := Options{MinSup: 2, PFCT: 0.8}
	k0, err := base.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	variants := []Options{
		{MinSup: 2, PFCT: 0.8, Parallelism: 8},
		{MinSup: 2, PFCT: 0.8, Tidsets: TidsetsCompressed},
		{MinSup: 2, PFCT: 0.8, Trace: os.Stderr},
		{MinSup: 2, PFCT: 0.8, Epsilon: 0.1, Delta: 0.1}, // explicit defaults
	}
	for _, v := range variants {
		k, err := v.CanonicalKey()
		if err != nil {
			t.Fatal(err)
		}
		if k != k0 {
			t.Errorf("CanonicalKey(%+v) = %q, want %q", v, k, k0)
		}
	}
	diff := []Options{
		{MinSup: 3, PFCT: 0.8},
		{MinSup: 2, PFCT: 0.7},
		{MinSup: 2, PFCT: 0.8, Seed: 1},
		{MinSup: 2, PFCT: 0.8, Epsilon: 0.05},
		{MinSup: 2, PFCT: 0.8, DisableCH: true},
		{MinSup: 2, PFCT: 0.8, Search: BFS},
		{MinSup: 2, PFCT: 0.8, MaxExactClauses: 3},
	}
	for _, v := range diff {
		k, err := v.CanonicalKey()
		if err != nil {
			t.Fatal(err)
		}
		if k == k0 {
			t.Errorf("CanonicalKey(%+v) should differ from the base key", v)
		}
	}
}

func TestCanonicalKeyRejectsInvalid(t *testing.T) {
	if _, err := (Options{MinSup: 0, PFCT: 0.8}).CanonicalKey(); err == nil {
		t.Error("MinSup 0 should be rejected")
	}
	if _, err := (Options{MinSup: 2, PFCT: 1.5}).CanonicalKey(); err == nil {
		t.Error("PFCT 1.5 should be rejected")
	}
}

func TestOptionsJSONRoundTrip(t *testing.T) {
	o := Options{
		MinSup: 3, PFCT: 0.6, Epsilon: 0.05, Delta: 0.2, Seed: 7,
		DisableSubset: true, Search: BFS, MaxExactClauses: -1,
		Parallelism: 4, Tidsets: TidsetsDense, Shards: 3,
	}
	blob, err := json.Marshal(o.JSON())
	if err != nil {
		t.Fatal(err)
	}
	var oj OptionsJSON
	if err := json.Unmarshal(blob, &oj); err != nil {
		t.Fatal(err)
	}
	back, err := oj.Options()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, o) {
		t.Errorf("round trip = %+v, want %+v", back, o)
	}
}

func TestOptionsJSONUnknownSearch(t *testing.T) {
	if _, err := (OptionsJSON{MinSup: 2, PFCT: 0.8, Search: "IDDFS"}).Options(); err == nil {
		t.Error("unknown search framework should be rejected")
	}
	for _, s := range []string{"dfs", "BFS", " bfs ", ""} {
		if _, err := (OptionsJSON{MinSup: 2, PFCT: 0.8, Search: s}).Options(); err != nil {
			t.Errorf("search %q should parse: %v", s, err)
		}
	}
}

func TestResultJSONPaperExample(t *testing.T) {
	res, err := Mine(uncertain.PaperExample(), Options{MinSup: 2, PFCT: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	rj := res.JSON()
	if len(rj.Itemsets) != 2 {
		t.Fatalf("got %d itemsets, want 2", len(rj.Itemsets))
	}
	abcd := rj.Itemsets[1]
	if !reflect.DeepEqual(abcd.Items, []int{0, 1, 2, 3}) {
		t.Errorf("second itemset = %v, want [0 1 2 3]", abcd.Items)
	}
	if math.Abs(abcd.Prob-0.81) > 1e-9 {
		t.Errorf("Pr_FC(abcd) = %v, want 0.81", abcd.Prob)
	}
	if abcd.Method == "" || abcd.FreqProb < abcd.Prob {
		t.Errorf("wire form lost fields: %+v", abcd)
	}
	// The wire form is pure data: it must survive a JSON round trip intact.
	blob, err := json.Marshal(rj)
	if err != nil {
		t.Fatal(err)
	}
	var back ResultJSON
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rj) {
		t.Error("ResultJSON did not survive a JSON round trip")
	}
}
