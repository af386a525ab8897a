package crosscheck

import (
	"math/rand"
	"testing"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/uncertain"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// casesPerShape is the differential property-suite budget. The acceptance
// bar is ≥ 500 random databases per shape under a minute; each case mines
// three miner variants against the exact possible-world oracle.
const casesPerShape = 500

// TestDifferentialProperty runs the full differential suite: for every
// shape, 500 seeded random databases small enough for the 2ⁿ oracle, each
// mined by the plain MPFCI configuration, the bound-free twin, and a
// seed-chosen ablation variant, with exact-set equality required.
//
// A failure message embeds shape and seed; reproduce with
//
//	go test ./internal/crosscheck -run 'TestDifferentialProperty/<shape>' -count=1
//
// or minimize via TestReproduceCase below.
func TestDifferentialProperty(t *testing.T) {
	for _, shape := range Shapes {
		shape := shape
		t.Run(string(shape), func(t *testing.T) {
			t.Parallel()
			for i := 0; i < casesPerShape; i++ {
				c := Case{Shape: shape, Seed: int64(i)}
				if err := RunDifferential(c); err != nil {
					t.Fatalf("%v\nreproduce: crosscheck.RunDifferential(crosscheck.Case{Shape: %q, Seed: %d})", err, shape, c.Seed)
				}
			}
		})
	}
}

// TestInvariantsProperty runs the metamorphic suite on databases beyond the
// oracle's reach (up to 36 transactions, 10 items): sandwich and ordering
// well-formedness, pfct and MinSup monotonicity, cross-knob determinism,
// DFS/BFS agreement, and sweep byte-identity.
func TestInvariantsProperty(t *testing.T) {
	cases := 40
	if testing.Short() {
		cases = 8
	}
	for _, shape := range Shapes {
		shape := shape
		t.Run(string(shape), func(t *testing.T) {
			t.Parallel()
			for i := 0; i < cases; i++ {
				c := Case{Shape: shape, Seed: int64(1000 + i)}
				if err := RunInvariants(c); err != nil {
					t.Fatalf("%v\nreproduce: crosscheck.RunInvariants(crosscheck.Case{Shape: %q, Seed: %d})", err, shape, c.Seed)
				}
			}
		})
	}
}

// TestRepresentationProperty runs the representation-equivalence suite:
// dense vs compressed tidsets at parallelism 1 and 4 must be
// byte-identical. The wide shapes run at RepMaxTrans (≥ 1024
// transactions), where the auto policy genuinely mixes representations.
func TestRepresentationProperty(t *testing.T) {
	for _, shape := range Shapes {
		shape := shape
		t.Run(string(shape), func(t *testing.T) {
			t.Parallel()
			cases := 12
			if shape.wide() {
				cases = 6 // each case mines a ~2000-transaction database five times
			}
			if testing.Short() {
				cases = 2
			}
			for i := 0; i < cases; i++ {
				c := Case{Shape: shape, Seed: int64(3000 + i)}
				if err := RunRepresentation(c); err != nil {
					t.Fatalf("%v\nreproduce: crosscheck.RunRepresentation(crosscheck.Case{Shape: %q, Seed: %d})", err, shape, c.Seed)
				}
			}
		})
	}
}

// TestShardEquivalenceProperty runs the shard-composability suite across
// the seeded shape generators: Shards = 1 byte-identical to unsharded,
// inline vs an httptest-served shard worker byte-identical at 2 and 4
// shards, and sharded vs single-node agreement within shardEps.
func TestShardEquivalenceProperty(t *testing.T) {
	cases := 25
	if testing.Short() {
		cases = 5
	}
	for _, shape := range Shapes {
		shape := shape
		t.Run(string(shape), func(t *testing.T) {
			t.Parallel()
			for i := 0; i < cases; i++ {
				c := Case{Shape: shape, Seed: int64(5000 + i)}
				if err := RunShardEquivalence(c); err != nil {
					t.Fatalf("%v\nreproduce: crosscheck.RunShardEquivalence(crosscheck.Case{Shape: %q, Seed: %d})", err, shape, c.Seed)
				}
			}
		})
	}
}

// TestStreamEquivalenceProperty runs the delta-engine suite across the
// seeded shape generators: every incremental round over a sliding window
// (random 1–3-transaction push batches, evictions included) byte-identical
// to a from-scratch mine of the snapshot, diffs accounting for every
// result, and a final no-change round splicing fully from the cache.
func TestStreamEquivalenceProperty(t *testing.T) {
	cases := 25
	if testing.Short() {
		cases = 5
	}
	for _, shape := range Shapes {
		shape := shape
		t.Run(string(shape), func(t *testing.T) {
			t.Parallel()
			for i := 0; i < cases; i++ {
				c := Case{Shape: shape, Seed: int64(7000 + i)}
				if err := RunStreamEquivalence(c); err != nil {
					t.Fatalf("%v\nreproduce: crosscheck.RunStreamEquivalence(crosscheck.Case{Shape: %q, Seed: %d})", err, shape, c.Seed)
				}
			}
		})
	}
}

// TestCalibrationProperty grades ApproxFCP against the world oracle (see
// Calibrate): 800 seeded databases per calibration shape, every union
// sampled, pfct placed next to a candidate's exact Pr_FC. Over the fixed
// seed set the estimates that miss by ε·union, and the verdicts on the
// wrong side of pfct, must stay under the binomial quantile δ allows. The
// grading must also reach enough estimates, verdicts and candidates near
// pfct to mean something.
func TestCalibrationProperty(t *testing.T) {
	var rep CalibrationReport
	// The shapes whose databases give sampled candidates: dense and
	// correlated data make extension events probable. The gaussian shape
	// grades the sampler on tails whose certain tuples are counted, not
	// gathered.
	for _, shape := range []Shape{ShapeDense, ShapeCorrelated, ShapeDegenerate, ShapeGaussian} {
		for i := 0; i < 800; i++ {
			c := Case{Shape: shape, Seed: int64(9000 + i)}
			r, err := Calibrate(c)
			if err != nil {
				t.Fatalf("%v\nreproduce: crosscheck.Calibrate(crosscheck.Case{Shape: %q, Seed: %d})", err, shape, c.Seed)
			}
			rep.Add(r)
		}
	}
	t.Log(rep)
	if rep.Estimates < 600 || rep.Verdicts < 250 || rep.Near < 250 {
		t.Fatalf("calibration reached too little: %v", rep)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestBinomialQuantile pins the gate's quantile against exact tails.
func TestBinomialQuantile(t *testing.T) {
	for _, tc := range []struct {
		n     int
		p     float64
		alpha float64
		want  int
	}{
		{0, 0.1, 1e-6, 0},
		{1, 0.5, 0.5, 0},    // Pr[X > 0] = 0.5
		{1, 0.5, 0.49, 1},   // needs c = 1
		{10, 0.1, 0.071, 2}, // Pr[X > 2] ≈ 0.0702
		{10, 0.1, 0.07, 3},  // Pr[X > 3] ≈ 0.0128
		{10, 0.1, 0.01, 4},  // Pr[X > 4] ≈ 0.0016
		{1000, 0.1, 1e-6, 148},
	} {
		if got := binomialQuantile(tc.n, tc.p, tc.alpha); got != tc.want {
			t.Errorf("binomialQuantile(%d, %g, %g) = %d, want %d", tc.n, tc.p, tc.alpha, got, tc.want)
		}
	}
}

// TestStreamEquivalencePaperExample anchors the stream checker on Table II
// at the paper's thresholds.
func TestStreamEquivalencePaperExample(t *testing.T) {
	db := uncertain.PaperExample()
	for _, pfct := range []float64{0.1, 0.5, 0.8} {
		if err := StreamEquivalence(db, core.Options{MinSup: 2, PFCT: pfct, Seed: 1}); err != nil {
			t.Errorf("pfct=%g: %v", pfct, err)
		}
	}
}

// TestShardEquivalencePaperExample anchors the shard checker on Table II at
// the paper's thresholds.
func TestShardEquivalencePaperExample(t *testing.T) {
	db := uncertain.PaperExample()
	for _, pfct := range []float64{0.1, 0.5, 0.8} {
		if err := ShardEquivalence(db, core.Options{MinSup: 2, PFCT: pfct, Seed: 1}); err != nil {
			t.Errorf("pfct=%g: %v", pfct, err)
		}
	}
}

// TestDifferentialPaperExample anchors the harness itself: the Table II
// database through the differential checker at the paper's thresholds.
func TestDifferentialPaperExample(t *testing.T) {
	db := uncertain.PaperExample()
	for _, pfct := range []float64{0.1, 0.5, 0.8, 0.9995} {
		if err := Differential(db, core.Options{MinSup: 2, PFCT: pfct, Seed: 1}); err != nil {
			t.Errorf("pfct=%g: %v", pfct, err)
		}
	}
}

// TestReproduceCase is the hook for minimizing a property-suite failure:
// paste the reported shape and seed here and run
//
//	go test ./internal/crosscheck -run TestReproduceCase -v
//
// It is a no-op unless edited, but keeps the reproduction path compiled.
func TestReproduceCase(t *testing.T) {
	c := Case{Shape: ShapeDegenerate, Seed: 0}
	if err := RunDifferential(c); err != nil {
		t.Fatal(err)
	}
	if err := RunInvariants(c); err != nil {
		t.Fatal(err)
	}
}

// TestGenDBShapes pins generator contracts: determinism per seed, bound
// respect, and non-emptiness.
func TestGenDBShapes(t *testing.T) {
	for _, shape := range Shapes {
		for seed := int64(0); seed < 50; seed++ {
			a := GenDB(shape, newRng(seed), 8, 6)
			b := GenDB(shape, newRng(seed), 8, 6)
			if a.N() != b.N() {
				t.Fatalf("%s seed %d: GenDB not deterministic (%d vs %d transactions)", shape, seed, a.N(), b.N())
			}
			if a.N() < 1 || a.N() > 8 {
				t.Fatalf("%s seed %d: %d transactions outside [1, 8]", shape, seed, a.N())
			}
			for tid := 0; tid < a.N(); tid++ {
				tr := a.Transaction(tid)
				if len(tr.Items) == 0 {
					t.Fatalf("%s seed %d: empty transaction %d", shape, seed, tid)
				}
				if tr.Prob <= 0 || tr.Prob > 1 {
					t.Fatalf("%s seed %d: transaction %d probability %v outside (0, 1]", shape, seed, tid, tr.Prob)
				}
			}
		}
	}
	if _, err := ParseShape("dense"); err != nil {
		t.Error(err)
	}
	if _, err := ParseShape("bogus"); err == nil {
		t.Error("ParseShape should reject unknown shapes")
	}
}
