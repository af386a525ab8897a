package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/gen"
	"github.com/probdata/pfcim/internal/uncertain"
)

// mineGoldenPath pins, per case of a fixed grid, the result-cache key of a
// mine and the SHA-256 of its canonical result bytes. Regenerate it after a
// deliberate change of result bits or keys with:
//
//	PFCIM_GOLDEN=write go test ./internal/service -run TestMineGolden
const mineGoldenPath = "testdata/mine-golden.json"

// goldenCase is one committed (key, digest) pair.
type goldenCase struct {
	Case   string `json:"case"`
	Key    string `json:"key"`
	Digest string `json:"digest"`
}

// goldenGrid mines every case of the grid and returns its key and digest:
// the paper's Table II and two seeded clamped-Gaussian databases (mean
// 0.5, variance 0.5, so about a quarter of the tuples are certain), each
// unsharded and at two shards, each with the Karp–Luby sampler reachable
// (MaxExactClauses −1) and unreachable (every union small enough to
// resolve exactly, so the key carries no " kl=" token).
func goldenGrid(t *testing.T) []goldenCase {
	t.Helper()
	gauss := func(cfg gen.QuestConfig) *uncertain.DB {
		return gen.AssignGaussian(gen.Quest(cfg), 0.5, 0.5, cfg.Seed)
	}
	dbs := []struct {
		name   string
		db     *uncertain.DB
		minSup int
		pfct   float64
		exact  int // a MaxExactClauses no union of this database exceeds
	}{
		{"table2", uncertain.PaperExample(), 2, 0.5, 6},
		{"gauss-dense", gauss(gen.QuestConfig{NumTrans: 60, NumItems: 10, AvgTransLen: 6, AvgPatternLen: 4, Seed: 7}), 6, 0.6, 9},
		{"gauss-sparse", gauss(gen.QuestConfig{NumTrans: 240, NumItems: 10, AvgTransLen: 4, AvgPatternLen: 3, Seed: 11}), 24, 0.3, 9},
	}
	reg := NewRegistry()
	var out []goldenCase
	for _, d := range dbs {
		ds, _, err := reg.Register(d.db, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{0, 2} {
			for _, sampler := range []bool{false, true} {
				oj := core.OptionsJSON{MinSup: d.minSup, PFCT: d.pfct, MaxExactClauses: d.exact, Shards: shards}
				if sampler {
					oj.MaxExactClauses = -1
				}
				opts, err := oj.Options()
				if err != nil {
					t.Fatal(err)
				}
				canon, err := opts.Canonical()
				if err != nil {
					t.Fatal(err)
				}
				optKey, err := canon.CanonicalKey()
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.Mine(ds.DB(), opts)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.Marshal(res.JSON())
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(raw)
				out = append(out, goldenCase{
					Case:   fmt.Sprintf("%s shards=%d sampler=%v", d.name, shards, sampler),
					Key:    cacheKey(ds, canon, optKey),
					Digest: hex.EncodeToString(sum[:]),
				})
			}
		}
	}
	return out
}

// TestMineGolden checks that result bits and cache keys move together. A
// digest that changes under an unchanged key would let the cache and the
// store serve stale bits; a key that changes under an unchanged digest
// would re-mine stored results for nothing. A change of both is a
// deliberate revision: the test fails until the golden is regenerated with
// PFCIM_GOLDEN=write, which refuses to write over either unsound change.
// The golden is written on amd64 with AVX2, so on any other platform the
// test also pins the portable kernels' bit-identity for whole mines.
func TestMineGolden(t *testing.T) {
	got := goldenGrid(t)
	want := map[string]goldenCase{}
	if raw, err := os.ReadFile(mineGoldenPath); err == nil {
		var cases []goldenCase
		if err := json.Unmarshal(raw, &cases); err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			want[c.Case] = c
		}
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	write := os.Getenv("PFCIM_GOLDEN") == "write"
	unsound := false
	for _, g := range got {
		w, ok := want[g.Case]
		switch {
		case !ok:
			if !write {
				t.Errorf("%s: no golden entry; regenerate with PFCIM_GOLDEN=write", g.Case)
			}
		case g.Key == w.Key && g.Digest != w.Digest:
			unsound = true
			t.Errorf("%s: result bits changed under the unchanged key %q: cached results would be served stale", g.Case, g.Key)
		case g.Key != w.Key && g.Digest == w.Digest:
			unsound = true
			t.Errorf("%s: key changed (%q → %q) under unchanged result bits: stored results would be re-mined for nothing", g.Case, w.Key, g.Key)
		case g.Key != w.Key && !write:
			t.Errorf("%s: key and result bits both changed (%q → %q); regenerate with PFCIM_GOLDEN=write", g.Case, w.Key, g.Key)
		}
	}
	if !write || unsound {
		return
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mineGoldenPath, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", mineGoldenPath)
}
