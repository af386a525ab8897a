package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/uncertain"
	"github.com/probdata/pfcim/internal/world"
)

// topKOracle ranks every itemset by exact Pr_FC.
func topKOracle(t *testing.T, db *uncertain.DB, minSup, k int) []world.Result {
	t.Helper()
	all, err := world.MineExact(db, minSup, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Prob != all[j].Prob {
			return all[i].Prob > all[j].Prob
		}
		return itemset.Compare(all[i].Items, all[j].Items) < 0
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

func TestMineTopKPaperExample(t *testing.T) {
	db := uncertain.PaperExample()
	var trace bytes.Buffer
	got, err := MineTopK(db, 2, 1, Options{Seed: 1, Trace: &trace})
	if err != nil {
		t.Fatal(err)
	}
	// Top-k runs Mine's node body, trace events included.
	if want := "subset-absorb {a} into {a b}"; !strings.Contains(trace.String(), want) {
		t.Errorf("trace lacks %q:\n%s", want, trace.String())
	}
	if len(got) != 1 || !itemset.Equal(got[0].Items, itemset.FromInts(0, 1, 2)) {
		t.Fatalf("top-1 = %v, want {a b c}", got)
	}
	if math.Abs(got[0].Prob-0.8754) > 1e-6 {
		t.Errorf("top-1 prob = %v", got[0].Prob)
	}
	got, err = MineTopK(db, 2, 5, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Only two itemsets have non-zero Pr_FC.
	if len(got) != 2 {
		t.Fatalf("top-5 returned %d itemsets, want 2: %v", len(got), got)
	}
}

// TestMineTopKAgainstOracle checks top-k under the options that change how
// the shared DFS computes — sharded tails, a requested work-stealing pool
// (which top-k must ignore: its output equals the serial run's exactly), no
// Chernoff–Hoeffding pruning, compressed tidsets — against exact ranking.
func TestMineTopKAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	variants := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"shards2", Options{Shards: 2}},
		{"parallel4", Options{Parallelism: 4}},
		{"nochernoff", Options{DisableCH: true}},
		{"compressed", Options{Tidsets: TidsetsCompressed}},
	}
	for trial := 0; trial < 25; trial++ {
		db := randomDB(rng, 8, 5)
		minSup := rng.Intn(2) + 1
		k := rng.Intn(4) + 1
		want := topKOracle(t, db, minSup, k)
		var serial []ResultItem
		for _, v := range variants {
			opts := v.opts
			opts.Seed = int64(trial)
			got, err := MineTopK(db, minSup, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			switch v.name {
			case "default":
				serial = got
			case "parallel4":
				if !reflect.DeepEqual(got, serial) {
					t.Fatalf("trial %d: Parallelism 4 gave %v, serial %v", trial, got, serial)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: got %d results, oracle %d\ngot=%v\nwant=%v",
					trial, v.name, len(got), len(want), got, want)
			}
			// Compare the probability profile rather than the identity of
			// tied/overlapping itemsets: the estimated probabilities may break
			// ties differently than the exact ones.
			for i := range got {
				// Bound-accepted results guarantee only their interval; other
				// methods must be close to the oracle value.
				inBounds := want[i].Prob >= got[i].Lower-1e-6 && want[i].Prob <= got[i].Upper+1e-6
				if math.Abs(got[i].Prob-want[i].Prob) > 0.05 && !inBounds {
					t.Fatalf("trial %d %s rank %d: prob %v [%v,%v] vs oracle %v (got %v, want %v)",
						trial, v.name, i, got[i].Prob, got[i].Lower, got[i].Upper, want[i].Prob, got[i].Items, want[i].Items)
				}
			}
		}
	}
}

func TestMineTopKDegenerate(t *testing.T) {
	db := uncertain.PaperExample()
	if got, err := MineTopK(db, 2, 0, Options{Seed: 1}); err != nil || got != nil {
		t.Errorf("k=0 should return nothing: %v, %v", got, err)
	}
	// minSup beyond the database: empty result.
	got, err := MineTopK(db, 10, 3, Options{Seed: 1})
	if err != nil || len(got) != 0 {
		t.Errorf("unsatisfiable minSup: %v, %v", got, err)
	}
	// Results must be sorted by descending probability.
	got, err = MineTopK(db, 1, 10, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Prob > got[i-1].Prob+1e-12 {
			t.Fatalf("top-k not sorted: %v", got)
		}
	}
}
