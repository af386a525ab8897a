package poibin

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomProbs(rng *rand.Rand, n int) []float64 {
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = rng.Float64()
	}
	return ps
}

// tailByEnumeration computes Pr[S ≥ k] by brute-force enumeration of all
// 2^n outcomes (n ≤ 16).
func tailByEnumeration(probs []float64, k int) float64 {
	n := len(probs)
	total := 0.0
	for mask := 0; mask < 1<<uint(n); mask++ {
		p := 1.0
		c := 0
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				p *= probs[i]
				c++
			} else {
				p *= 1 - probs[i]
			}
		}
		if c >= k {
			total += p
		}
	}
	return total
}

func TestTailAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(10) + 1
		probs := randomProbs(rng, n)
		for k := 0; k <= n+1; k++ {
			got := Tail(probs, k)
			want := tailByEnumeration(probs, k)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("Tail(%v, %d) = %v, want %v", probs, k, got, want)
			}
		}
	}
}

func TestTailEdgeCases(t *testing.T) {
	probs := []float64{0.5, 0.5}
	if Tail(probs, 0) != 1 {
		t.Error("Tail(k=0) must be 1")
	}
	if Tail(probs, -3) != 1 {
		t.Error("Tail(k<0) must be 1")
	}
	if Tail(probs, 3) != 0 {
		t.Error("Tail(k>n) must be 0")
	}
	if Tail(nil, 0) != 1 || Tail(nil, 1) != 0 {
		t.Error("Tail of empty distribution wrong")
	}
	// Deterministic tuples.
	if got := Tail([]float64{1, 1, 1}, 3); math.Abs(got-1) > 1e-15 {
		t.Errorf("Tail(all 1s, 3) = %v", got)
	}
	if got := Tail([]float64{1, 1, 0.5}, 3); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("Tail([1,1,.5], 3) = %v", got)
	}
}

func TestPMFSumsToOne(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz)%20 + 1
		rng := rand.New(rand.NewSource(seed))
		probs := randomProbs(rng, n)
		pmf := PMF(probs)
		sum := 0.0
		mean := 0.0
		for c, p := range pmf {
			if p < -1e-15 {
				return false
			}
			sum += p
			mean += float64(c) * p
		}
		return math.Abs(sum-1) < 1e-9 && math.Abs(mean-Mean(probs)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTailAllMatchesTail(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	probs := randomProbs(rng, 30)
	tails := TailAll(probs)
	for k := 0; k <= 30; k++ {
		if math.Abs(tails[k]-Tail(probs, k)) > 1e-9 {
			t.Fatalf("TailAll[%d] = %v, Tail = %v", k, tails[k], Tail(probs, k))
		}
	}
	// Monotone non-increasing.
	for k := 1; k <= 30; k++ {
		if tails[k] > tails[k-1]+1e-12 {
			t.Fatalf("TailAll not monotone at %d", k)
		}
	}
}

func TestBoundsDominateExactTail(t *testing.T) {
	f := func(seed int64, sz uint8, kk uint8) bool {
		n := int(sz)%25 + 1
		rng := rand.New(rand.NewSource(seed))
		probs := randomProbs(rng, n)
		k := int(kk) % (n + 2)
		exact := Tail(probs, k)
		for _, bound := range []float64{
			HoeffdingUpper(probs, k),
			ChernoffUpper(probs, k),
			TailUpperBound(probs, k),
		} {
			if bound < exact-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsNontrivial(t *testing.T) {
	// Far above the mean, the bounds must actually prune (be ≪ 1).
	probs := make([]float64, 100)
	for i := range probs {
		probs[i] = 0.3
	}
	if b := TailUpperBound(probs, 70); b > 0.01 {
		t.Errorf("TailUpperBound at 70 with mean 30 = %v, want tiny", b)
	}
	if b := TailUpperBound(probs, 20); b != 1 {
		t.Errorf("TailUpperBound below the mean = %v, want 1", b)
	}
}

func TestMeanVariance(t *testing.T) {
	probs := []float64{0.25, 0.5, 1}
	if got := Mean(probs); math.Abs(got-1.75) > 1e-15 {
		t.Errorf("Mean = %v", got)
	}
}

func TestTailLowerBound(t *testing.T) {
	f := func(seed int64, sz uint8, kk uint8) bool {
		n := int(sz)%25 + 1
		rng := rand.New(rand.NewSource(seed))
		probs := randomProbs(rng, n)
		k := int(kk) % (n + 2)
		return TailLowerBound(probs, k) <= Tail(probs, k)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Far below the mean, the lower bound should be close to 1.
	probs := make([]float64, 100)
	for i := range probs {
		probs[i] = 0.8
	}
	if b := TailLowerBound(probs, 40); b < 0.9 {
		t.Errorf("TailLowerBound at 40 with mean 80 = %v, want near 1", b)
	}
	if TailLowerBound(probs, 0) != 1 || TailLowerBound(probs, 101) != 0 {
		t.Error("TailLowerBound edge cases wrong")
	}
	if TailLowerBound(nil, 1) != 0 {
		t.Error("TailLowerBound on empty distribution")
	}
}

// TestTailClampedFuzzSeed158 is the minimized regression for a crosscheck
// FuzzMine counterexample (degenerate shape, seed 158): with certain tuples
// in the vector, the absorbing DP sum landed one ulp above 1, and the miner
// then reported an itemset with Pr_F > 1 and a crossed Lemma 4.4 sandwich.
// Tail and TailAll must never exceed 1.
func TestTailClampedFuzzSeed158(t *testing.T) {
	probs := []float64{1.6339363439570932e-07, 0.8950463782409095, 0.2225405058074865, 1, 1}
	if got := Tail(probs, 2); got > 1 {
		t.Errorf("Tail(probs, 2) = %b, exceeds 1", got)
	}
	for k, got := range TailAll(probs) {
		if got > 1 {
			t.Errorf("TailAll(probs)[%d] = %b, exceeds 1", k, got)
		}
	}
}
