package poibin

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Sample fills dst (length n) with one conditioned draw, walking every
// position: the materializing reference the distribution tests use. It
// panics if dst has the wrong length or the walk enters a NaN cell, which
// no walk can reach (DESIGN §13).
func (cs *CondSampler) Sample(rng *SM64, dst []bool) {
	if len(dst) != cs.n {
		panic(fmt.Sprintf("poibin: Sample dst length %d, want %d", len(dst), cs.n))
	}
	r := cs.k
	for i := 0; i < cs.n; i++ {
		// Row 0 holds p_i: once the constraint is met the rest is
		// unconditioned.
		p := cs.tab[i*(cs.k+1)+r]
		if p != p {
			panic(fmt.Sprintf("poibin: walk reached NaN cell (%d, %d) of n=%d k=%d", i, r, cs.n, cs.k))
		}
		dst[i] = rng.Float64() < p
		if dst[i] && r > 0 {
			r--
		}
	}
}

// bandNaN reports whether cs's table holds a NaN cell — a suffix tail that
// underflowed to 0 — inside the band max(1, k−i) ≤ r ≤ min(k, n−i) of its
// tabled columns.
func bandNaN(cs *CondSampler) bool {
	for i := 0; i < cs.cols; i++ {
		for r := max(1, cs.k-i); r <= min(cs.k, cs.n-i); r++ {
			if p := cs.tab[i*(cs.k+1)+r]; p != p {
				return true
			}
		}
	}
	return false
}

// reachableNaN walks every cell of rows r ≥ 1 a conditioned world can
// reach in cs's table — a success edge only from a cell > 0, a fail edge
// only from a cell < 1, as a draw u ∈ [0, 1) with u < cell allows — and
// returns the first NaN or out-of-band cell it reaches, or ok.
func reachableNaN(cs *CondSampler) (i, r int, ok bool) {
	k, stride := cs.k, cs.k+1
	cur := make([]bool, stride)
	nxt := make([]bool, stride)
	cur[k] = true
	for i = 0; i < cs.n; i++ {
		clear(nxt)
		for r = 1; r <= k; r++ {
			if !cur[r] {
				continue
			}
			c := cs.tab[i*stride+r]
			if c != c || r < k-i || r > cs.n-i {
				return i, r, false
			}
			nxt[r-1] = nxt[r-1] || c > 0
			nxt[r] = nxt[r] || c < 1
		}
		cur, nxt = nxt, cur
	}
	return 0, 0, true
}

// TestReachableCellsFinite pins the invariant that makes every world draw
// exactly n times: no walk enters a NaN cell. A fail edge into one leaves
// a cell whose quotient is exactly p·t/(p·t + 0) = 1, a success edge into
// one leaves a cell whose quotient is fl(p·0)/t = 0, and the start cell's
// tail is Prob() > 0. The corpus is every vector of length ≤ 5 over
// values that underflow in pairs, in threes or not at all, for every k,
// plus seeded random tables up to n = 14; it must hold in-band NaN cells,
// or the check would be vacuous.
func TestReachableCellsFinite(t *testing.T) {
	vals := []float64{0, 1, 1e-170, 1e-300, math.SmallestNonzeroFloat64, 0.5, 1 - 0x1p-53}
	var cs CondSampler
	tables, withNaN := 0, 0
	check := func(probs []float64, k int) {
		if cs.Reset(probs, k, len(probs)) != nil {
			return
		}
		tables++
		if bandNaN(&cs) {
			withNaN++
		}
		if i, r, ok := reachableNaN(&cs); !ok {
			t.Fatalf("probs %v k=%d: a walk reaches cell (%d, %d) = %v", probs, k, i, r, cs.tab[i*(k+1)+r])
		}
	}
	for n := 1; n <= 5; n++ {
		idx := make([]int, n)
		probs := make([]float64, n)
		for {
			for i, j := range idx {
				probs[i] = vals[j]
			}
			for k := 0; k <= n; k++ {
				check(probs, k)
			}
			i := 0
			for ; i < n && idx[i] == len(vals)-1; i++ {
				idx[i] = 0
			}
			if i == n {
				break
			}
			idx[i]++
		}
	}
	rng := rand.New(rand.NewSource(97))
	pool := append(vals, 1e-200)
	for trial := 0; trial < 20000; trial++ {
		probs := make([]float64, 1+rng.Intn(14))
		for i := range probs {
			probs[i] = pool[rng.Intn(len(pool))]
			if rng.Intn(3) == 0 {
				probs[i] = rng.Float64()
			}
		}
		check(probs, rng.Intn(len(probs)+1))
	}
	if withNaN == 0 {
		t.Fatalf("none of %d tables had a NaN cell in the walk's band", tables)
	}
	t.Logf("%d tables, %d with an in-band NaN cell", tables, withNaN)
}

func TestCondSamplerUnsatisfiable(t *testing.T) {
	if _, err := NewCondSampler([]float64{0.5, 0.5}, 3); err == nil {
		t.Error("k > n should fail")
	}
	if _, err := NewCondSampler([]float64{0, 0}, 1); err == nil {
		t.Error("zero-probability constraint should fail")
	}
}

func TestCondSamplerProb(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(8) + 1
		probs := randomProbs(rng, n)
		k := rng.Intn(n + 1)
		cs, err := NewCondSampler(probs, k)
		if err != nil {
			// Possible only if Tail == 0, which randomProbs makes
			// vanishingly unlikely; regenerate.
			continue
		}
		if got, want := cs.Prob(), Tail(probs, k); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Prob() = %v, want Tail = %v", got, want)
		}
	}
}

// TestCondSamplerDistribution verifies that the sampler reproduces the true
// conditional distribution Pr[x | Σx ≥ k] on a small instance, comparing
// empirical outcome frequencies with exact conditional probabilities.
func TestCondSamplerDistribution(t *testing.T) {
	probs := []float64{0.9, 0.3, 0.6, 0.5}
	const k = 2
	n := len(probs)

	// Exact conditional distribution over the 2^4 outcomes.
	tail := Tail(probs, k)
	exact := map[int]float64{}
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
			exact[mask] = p / tail
		}
	}

	cs, err := NewCondSampler(probs, k)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewSM64(42)
	const samples = 200000
	counts := map[int]int{}
	draw := make([]bool, n)
	for s := 0; s < samples; s++ {
		cs.Sample(rng, draw)
		mask := 0
		c := 0
		for i, on := range draw {
			if on {
				mask |= 1 << uint(i)
				c++
			}
		}
		if c < k {
			t.Fatalf("sample violates constraint: %v", draw)
		}
		counts[mask]++
	}
	for mask, want := range exact {
		got := float64(counts[mask]) / samples
		if math.Abs(got-want) > 0.01 {
			t.Errorf("outcome %04b: empirical %.4f, exact %.4f", mask, got, want)
		}
	}
	for mask := range counts {
		if _, ok := exact[mask]; !ok {
			t.Errorf("sampled impossible outcome %04b", mask)
		}
	}
}

func TestCondSamplerUnconstrained(t *testing.T) {
	// k = 0 must reduce to independent sampling.
	probs := []float64{0.2, 0.8}
	cs, err := NewCondSampler(probs, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewSM64(5)
	const samples = 100000
	ones := make([]int, len(probs))
	draw := make([]bool, len(probs))
	for s := 0; s < samples; s++ {
		cs.Sample(rng, draw)
		for i, on := range draw {
			if on {
				ones[i]++
			}
		}
	}
	for i, p := range probs {
		got := float64(ones[i]) / samples
		if math.Abs(got-p) > 0.01 {
			t.Errorf("var %d: empirical %.3f, want %.3f", i, got, p)
		}
	}
}

func TestCondSamplerWrongLengthPanics(t *testing.T) {
	cs, err := NewCondSampler([]float64{0.5, 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Sample with wrong dst length should panic")
		}
	}()
	cs.Sample(NewSM64(1), make([]bool, 3))
}

func TestCondSamplerTightConstraint(t *testing.T) {
	// k = n forces the all-ones vector.
	probs := []float64{0.9, 0.1, 0.5}
	cs, err := NewCondSampler(probs, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewSM64(6)
	draw := make([]bool, 3)
	for s := 0; s < 100; s++ {
		cs.Sample(rng, draw)
		for i, on := range draw {
			if !on {
				t.Fatalf("k=n sample has a zero at %d", i)
			}
		}
	}
}

// randomCondInstance draws probabilities from a mix that includes certain,
// impossible and underflowing (1e-170) tuples, so some tables carry NaN
// cells inside the walk's band.
func randomCondInstance(rng *rand.Rand) ([]float64, int) {
	n := rng.Intn(30) + 1
	probs := make([]float64, n)
	for i := range probs {
		switch u := rng.Float64(); {
		case u < 0.05:
			probs[i] = 0
		case u < 0.1:
			probs[i] = 1
		case u < 0.35:
			probs[i] = 1e-170 * (1 + rng.Float64())
		default:
			probs[i] = rng.Float64()
		}
	}
	return probs, rng.Intn(n + 1)
}

// TestCoversMatchesFullWalk checks the early-stopping walk over a table of
// the first L columns against the materializing walk over the full table,
// with masks on the first L positions only: same verdict, and the
// generator left in the same state, including starts that put a Float64
// retry inside the part of the walk Covers skips. One sampler is Reset
// across all instances, so stale table contents from a larger earlier
// instance would show.
func TestCoversMatchesFullWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var cs CondSampler
	withNaN, prefix := 0, 0
	for trial := 0; trial < 600; trial++ {
		probs, k := randomCondInstance(rng)
		n := len(probs)
		cols := n
		if rng.Intn(2) == 0 {
			cols = rng.Intn(n + 1)
		}
		if err := cs.Reset(probs, k, cols); err != nil {
			continue
		}
		if cols < n {
			prefix++
		}
		ref, err := NewCondSampler(probs, k)
		if err != nil {
			t.Fatal(err)
		}
		if bandNaN(&cs) {
			withNaN++
		}
		w := rng.Intn(3) + 1
		masks := make([]uint64, cols*w)
		union := make([]uint64, w)
		for i := range masks {
			if rng.Float64() < 0.3 {
				masks[i] = 1 << uint(rng.Intn(64))
				union[i%w] |= masks[i]
			}
		}
		want := union
		if rng.Float64() < 0.1 {
			want = make([]uint64, w)
		}
		seed := rng.Uint64()
		if trial%4 == 0 {
			// A retry at a random draw of the walk.
			seed = (retryCounters[rng.Intn(len(retryCounters))] - uint64(rng.Intn(n)+1)) * golden
		}
		full, fast := SM64{state: seed}, SM64{state: seed}
		world := make([]bool, n)
		ref.Sample(&full, world)
		acc := make([]uint64, w)
		for i, on := range world[:cols] {
			if on {
				for j := 0; j < w; j++ {
					acc[j] |= masks[i*w+j]
				}
			}
		}
		covered := true
		for j := range want {
			covered = covered && acc[j]&want[j] == want[j]
		}
		if hit := cs.Covers(&fast, masks, want, make([]uint64, w)); hit != covered {
			t.Fatalf("trial %d: Covers = %v, full walk reaches %x of %x", trial, hit, acc, want)
		}
		if fast.state != full.state {
			t.Fatalf("trial %d: Covers left the generator %d draws from the full walk's", trial, int64((fast.state-full.state)*goldenInv))
		}
		samples := rng.Intn(4)
		for s := 0; s < samples; s++ {
			ref.Sample(&full, world)
		}
		cs.Skip(&fast, samples)
		if fast.state != full.state {
			t.Fatalf("trial %d: Skip(%d) differs from %d full walks", trial, samples, samples)
		}
	}
	if withNaN == 0 {
		t.Error("no instance had a NaN cell in the walk's band")
	}
	if prefix == 0 {
		t.Error("no instance tabled fewer columns than positions")
	}
}
