package poibin

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The lockstep walker and the banded table against their references, bit
// for bit: CountCovers against one Covers call per world (hits and the
// generator's final state), the band against the full suffix-tail table,
// and ResetSkip against Reset.

// coversLoop is CountCovers' reference: one scalar walk per world.
func coversLoop(cs *CondSampler, rng *SM64, masks, want []uint64, samples int) int {
	acc := make([]uint64, len(want))
	hits := 0
	for ; samples > 0; samples-- {
		if cs.Covers(rng, masks, want, acc) {
			hits++
		}
	}
	return hits
}

// walkMasks draws one mask word per position, each position carrying one
// of w bits with probability dense, and returns them with their union.
func walkMasks(rng *rand.Rand, n, w int, dense float64) ([]uint64, uint64) {
	masks := make([]uint64, n)
	var union uint64
	for i := range masks {
		if rng.Float64() < dense {
			masks[i] = 1 << uint(rng.Intn(w))
			union |= masks[i]
		}
	}
	return masks, union
}

// checkCountCovers runs CountCovers and its reference from state seed and
// fails on any difference in hits or final state. It reports whether the
// vector walker could have run (one nonzero want word, at least one whole
// group).
func checkCountCovers(t *testing.T, cs *CondSampler, masks, want []uint64, samples int, seed uint64) bool {
	t.Helper()
	ref, got := SM64{state: seed}, SM64{state: seed}
	wantHits := coversLoop(cs, &ref, masks, want, samples)
	hits := cs.CountCovers(&got, masks, want, make([]uint64, len(want)), samples)
	if hits != wantHits {
		t.Fatalf("n=%d k=%d samples=%d seed=%#x: CountCovers = %d hits, Covers loop %d", cs.n, cs.k, samples, seed, hits, wantHits)
	}
	if got.state != ref.state {
		t.Fatalf("n=%d k=%d samples=%d seed=%#x: CountCovers left the generator %d draws from the Covers loop's",
			cs.n, cs.k, samples, seed, int64((got.state-ref.state)*goldenInv))
	}
	return useAVX2 && len(want) == 1 && want[0] != 0 && samples >= lanes
}

// tableCols picks how many columns a test tables of n positions: all of
// them half the time, else a random prefix (none included).
func tableCols(rng *rand.Rand, n int) int {
	if rng.Intn(2) == 0 {
		return n
	}
	return rng.Intn(n + 1)
}

// TestCountCoversMatchesCovers covers every lane remainder (0…20 worlds:
// none, one and two whole groups plus 0…7 left over), sizes up to 700,
// k ∈ {0, 1, n/3, n} and tables of every position or a prefix, with wants
// that are covered early, late and never.
func TestCountCoversMatchesCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var cs CondSampler
	vector := 0
	for _, n := range []int{1, 2, 3, 5, 8, 13, 31, 64, 65, 130, 257, 700} {
		for _, k := range []int{0, 1, n / 3, n} {
			probs := make([]float64, n)
			for i := range probs {
				probs[i] = 0.2 + 0.8*rng.Float64()
			}
			cols := tableCols(rng, n)
			if err := cs.Reset(probs, k, cols); err != nil {
				t.Fatal(err)
			}
			for samples := 0; samples <= 20; samples++ {
				// Few bits are covered early, many late.
				masks, union := walkMasks(rng, cols, 1+rng.Intn(64), rng.Float64())
				want := []uint64{union}
				if rng.Intn(4) == 0 {
					want[0] |= 1 << 63 // never covered: every world walks every column
				}
				if checkCountCovers(t, &cs, masks, want, samples, rng.Uint64()) {
					vector++
				}
			}
		}
	}
	if useAVX2 && vector == 0 {
		t.Error("no case ran the vector walker")
	}
}

// TestCountCoversFallbacks checks against the same reference the cases the
// vector walker must not take, wants of several words and an empty want,
// and underflowing tables (zero and 1e-300 probabilities), whose NaN cells
// no walk reaches, so the vector walker runs them like any other.
func TestCountCoversFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	var cs CondSampler
	withNaN, vectorNaN := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(120)
		probs := make([]float64, n)
		for i := range probs {
			switch u := rng.Float64(); {
			case u < 0.1:
				probs[i] = 0
			case u < 0.4:
				probs[i] = 1e-300 * (1 + rng.Float64())
			default:
				probs[i] = rng.Float64()
			}
		}
		k := rng.Intn(n + 1)
		cols := tableCols(rng, n)
		if err := cs.Reset(probs, k, cols); err != nil {
			continue
		}
		nan := bandNaN(&cs)
		if nan {
			withNaN++
		}
		w := 1 + rng.Intn(3)
		masks := make([]uint64, cols*w)
		want := make([]uint64, w)
		for i := range masks {
			if rng.Float64() < 0.3 {
				masks[i] = 1 << uint(rng.Intn(64))
				want[i%w] |= masks[i]
			}
		}
		if rng.Intn(8) == 0 {
			want = make([]uint64, w)
		}
		if checkCountCovers(t, &cs, masks, want, rng.Intn(21), rng.Uint64()) && nan {
			vectorNaN++
		}
	}
	if withNaN == 0 {
		t.Error("no instance had a NaN cell in its band")
	}
	if useAVX2 && vectorNaN == 0 {
		t.Error("the vector walker ran no table with a NaN cell in its band")
	}
}

// TestCountCoversRetryWindow starts the generator so that a Float64 retry
// falls at every interesting draw of the first group: inside the first
// lane, inside each later lane, at the last draw of the window and just
// past it. A group whose window holds the retry must walk one world at a
// time; the state must come out as the serial walks leave it.
func TestCountCoversRetryWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	var cs CondSampler
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(90)
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = 0.2 + 0.8*rng.Float64()
		}
		cols := tableCols(rng, n)
		if err := cs.Reset(probs, rng.Intn(n+1), cols); err != nil {
			t.Fatal(err)
		}
		masks, union := walkMasks(rng, cols, 1+rng.Intn(16), 0.5)
		c := retryCounters[rng.Intn(len(retryCounters))]
		// Draw t of the group uses counter c0+t, so a start at c0 = c−t
		// puts the retry at draw t.
		draws := []uint64{1, 5, uint64(n), uint64(n) + 1, uint64(lanes*n) - 1, uint64(lanes * n), uint64(lanes*n) + 1}
		for j := 1; j < lanes; j++ {
			draws = append(draws, uint64(j*n)+uint64(1+rng.Intn(n)))
		}
		for _, d := range draws {
			for _, samples := range []int{lanes, lanes + 3, 3 * lanes} {
				checkCountCovers(t, &cs, masks, []uint64{union}, samples, (c-d)*golden)
			}
		}
	}
}

// fullTable is the sampler table before the band: every cell (i, r) of
// rows 1…k from the full suffix-tail recurrence, NaN where the tail is 0,
// and Pr[Σx ≥ k].
func fullTable(probs []float64, k int) (pone [][]float64, prob float64) {
	n := len(probs)
	next := make([]float64, k+1)
	row := make([]float64, k+1)
	next[0] = 1
	pone = make([][]float64, n)
	for i := n - 1; i >= 0; i-- {
		p := probs[i]
		pone[i] = make([]float64, k+1)
		row[0] = 1
		for r := 1; r <= k; r++ {
			row[r] = float64(p*next[r-1]) + float64((1-p)*next[r])
			if denom := row[r]; denom > 0 {
				pone[i][r] = p * next[r-1] / denom
			} else {
				pone[i][r] = math.NaN()
			}
		}
		next, row = row, next
	}
	return pone, next[k]
}

// sameFloat reports bit equality, with any two NaNs equal.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// TestBandMatchesFullTable compares every in-band cell of the tabled
// columns, NaN cells included, row 0 and Prob (run through the untabled
// columns' tails) with the full table, for instances up to n = 300 with
// zero, certain and underflowing probabilities. One sampler is Reset
// across all of them, so a band edge that relied on a stale cell of a
// larger earlier table would show.
func TestBandMatchesFullTable(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	var cs CondSampler
	for trial := 0; trial < 400; trial++ {
		var probs []float64
		var k int
		if trial%2 == 0 {
			probs, k = randomCondInstance(rng)
		} else {
			n := 1 + rng.Intn(300)
			probs = make([]float64, n)
			for i := range probs {
				probs[i] = rng.Float64()
				if rng.Intn(20) == 0 {
					probs[i] = 1e-200
				}
			}
			k = []int{0, 1, n / 3, n - 1, n}[rng.Intn(5)]
		}
		n := len(probs)
		pone, prob := fullTable(probs, k)
		cols := tableCols(rng, n)
		err := cs.Reset(probs, k, cols)
		if (err != nil) != (prob <= 0) {
			t.Fatalf("trial %d: Reset error %v with Pr = %v", trial, err, prob)
		}
		if err != nil {
			continue
		}
		if !sameFloat(cs.Prob(), prob) {
			t.Fatalf("trial %d: Prob %v, full table %v", trial, cs.Prob(), prob)
		}
		stride := k + 1
		for i := 0; i < cols; i++ {
			if got := cs.tab[i*stride]; !sameFloat(got, probs[i]) {
				t.Fatalf("trial %d: row 0 at %d = %v, want p = %v", trial, i, got, probs[i])
			}
			for r := max(1, k-i); r <= min(k, n-i); r++ {
				if got := cs.tab[i*stride+r]; !sameFloat(got, pone[i][r]) {
					t.Fatalf("trial %d (n=%d k=%d): cell (%d,%d) = %v, full table %v", trial, n, k, i, r, got, pone[i][r])
				}
			}
		}
	}
}

// TestResetSkipMatchesReset runs Skip after ResetSkip and after Reset on
// adversarial vectors — products of the last k probabilities on both sides
// of 2⁻⁹⁰⁰, zeros, underflowing pairs, subnormals and k outside [0, n] —
// and requires the same error and the same generator state. Where the
// precheck skipped the table, Reset must agree that no tail in the band
// rounded to 0.
func TestResetSkipMatchesReset(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	var fast, full CondSampler
	tabled := 0
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(60)
		k := rng.Intn(n+3) - 1
		probs := make([]float64, n)
		kk := min(max(k, 1), n)
		edge := math.Pow(2, -900/float64(kk)) // the last k at edge multiply to ≈ 2⁻⁹⁰⁰
		for i := range probs {
			switch u := rng.Float64(); {
			case u < 0.3:
				probs[i] = edge * (1 + (rng.Float64()-0.5)*1e-12)
			case u < 0.4:
				probs[i] = 0
			case u < 0.5:
				probs[i] = 1e-170
			case u < 0.55:
				probs[i] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(100))
			case u < 0.65:
				probs[i] = 1
			default:
				probs[i] = rng.Float64()
			}
		}
		fast = CondSampler{} // a table after ResetSkip is one it built
		errFast := fast.ResetSkip(probs, k)
		errFull := full.Reset(probs, k, n)
		if fmt.Sprint(errFast) != fmt.Sprint(errFull) {
			t.Fatalf("trial %d: ResetSkip error %v, Reset %v", trial, errFast, errFull)
		}
		if errFull != nil {
			continue
		}
		if fast.tab != nil {
			tabled++
		} else if bandNaN(&full) {
			t.Fatalf("trial %d: ResetSkip skipped the table, Reset has a NaN cell in its band", trial)
		}
		samples := rng.Intn(5)
		seed := rng.Uint64()
		if trial%3 == 0 {
			seed = (retryCounters[rng.Intn(len(retryCounters))] - uint64(rng.Intn(n*samples+1))) * golden
		}
		a, b := SM64{state: seed}, SM64{state: seed}
		fast.Skip(&a, samples)
		full.Skip(&b, samples)
		if a.state != b.state {
			t.Fatalf("trial %d: Skip(%d) after ResetSkip differs from after Reset", trial, samples)
		}
	}
	if tabled == 0 {
		t.Error("no instance with a nonzero probability failed the precheck")
	}
}

// FuzzCondWalk compares CountCovers with the Covers loop on instances the
// seed shapes: size, k, tabled columns, probability mix (tables with
// unreachable NaN cells included), mask density, want width, world count
// and a start near a retry counter.
func FuzzCondWalk(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(700)
		if rng.Intn(2) == 0 {
			n = 1 + rng.Intn(40)
		}
		probs := make([]float64, n)
		mix := rng.Intn(3)
		for i := range probs {
			switch u := rng.Float64(); {
			case mix == 2 && u < 0.1:
				probs[i] = 0
			case mix >= 1 && u < 0.2:
				probs[i] = 1e-170 * (1 + rng.Float64())
			default:
				probs[i] = rng.Float64()
			}
		}
		k := []int{0, 1, n / 3, n, rng.Intn(n + 1)}[rng.Intn(5)]
		cols := tableCols(rng, n)
		var cs CondSampler
		if err := cs.Reset(probs, k, cols); err != nil {
			return
		}
		w := 1
		if rng.Intn(8) == 0 {
			w = 2
		}
		masks := make([]uint64, cols*w)
		want := make([]uint64, w)
		dense := rng.Float64()
		for i := range masks {
			if rng.Float64() < dense {
				masks[i] = 1 << uint(rng.Intn(1+rng.Intn(64)))
				want[i%w] |= masks[i]
			}
		}
		if rng.Intn(4) == 0 {
			want[0] |= 1 << 63
		}
		samples := rng.Intn(3 * lanes)
		st := rng.Uint64()
		if rng.Intn(4) == 0 {
			st = (retryCounters[rng.Intn(len(retryCounters))] - uint64(rng.Intn(lanes*n+2))) * golden
		}
		checkCountCovers(t, &cs, masks, want, samples, st)
	})
}
