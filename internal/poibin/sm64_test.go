package poibin

import (
	"math/rand"
	"testing"
)

// sm64Source adapts the SM64 algorithm to rand.Source64 so the test can
// run math/rand's own Float64 over the identical underlying stream.
type sm64Source struct{ s SM64 }

func (a *sm64Source) Uint64() uint64  { return a.s.Uint64() }
func (a *sm64Source) Int63() int64    { return a.s.Int63() }
func (a *sm64Source) Seed(seed int64) { a.s = SM64{state: uint64(seed)} }

// TestSM64MatchesMathRand pins SM64.Float64 to math/rand bit for bit: the
// concrete generator must emit exactly the floats rand.New would over the
// same splitmix64 stream. The miner's byte-identical-results guarantee
// rides on this equivalence.
func TestSM64MatchesMathRand(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xDEADBEEF, ^uint64(0)} {
		fast := NewSM64(seed)
		ref := rand.New(&sm64Source{s: SM64{state: seed}})
		for i := 0; i < 100000; i++ {
			if got, want := fast.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d draw %d: SM64 %v, math/rand %v", seed, i, got, want)
			}
		}
	}
}

// TestSM64Stream sanity-checks the generator: no short cycles, and
// reseeding reproduces the stream.
func TestSM64Stream(t *testing.T) {
	src := NewSM64(42)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		v := src.Uint64()
		if seen[v] {
			t.Fatalf("splitmix64 stream repeated after %d draws", i)
		}
		seen[v] = true
	}
	first := NewSM64(42).Uint64()
	if NewSM64(42).Uint64() != first {
		t.Fatal("reseeding does not reproduce the stream")
	}
}

// stateBefore returns the state whose next Uint64 is v.
func stateBefore(v uint64) uint64 { return unfinalize(v) - golden }

func TestUnfinalizeInvertsFinalize(t *testing.T) {
	if inverseOdd(golden)*golden != 1 {
		t.Fatal("inverseOdd(golden) is not golden's inverse mod 2^64")
	}
	rng := rand.New(rand.NewSource(1))
	for _, v := range []uint64{0, 1, retryMin - 1, retryMin, ^uint64(0), rng.Uint64(), rng.Uint64()} {
		if got := finalize(unfinalize(v)); got != v {
			t.Fatalf("finalize(unfinalize(%#x)) = %#x", v, got)
		}
		if got := unfinalize(finalize(v)); got != v {
			t.Fatalf("unfinalize(finalize(%#x)) = %#x", v, got)
		}
	}
}

// TestFloat64RetryBoundary pins the one place the draw count of Float64 is
// not 1: it retries exactly when Uint64 ≥ 2⁶⁴ − 2¹⁰, like math/rand.
func TestFloat64RetryBoundary(t *testing.T) {
	for _, v := range []uint64{0, 1 << 63, retryMin - 2, retryMin - 1, retryMin, retryMin + 1, retryMin + 511, ^uint64(0) - 1, ^uint64(0)} {
		start := stateBefore(v)
		probe := SM64{state: start}
		if got := probe.Uint64(); got != v {
			t.Fatalf("state %#x yields %#x, want %#x", start, got, v)
		}
		fast := SM64{state: start}
		got := fast.Float64()
		draws := (fast.state - start) * goldenInv
		wantDraws := uint64(1)
		if v >= retryMin {
			wantDraws = 2
		}
		if draws != wantDraws {
			t.Errorf("Uint64 %#x: Float64 took %d draws, want %d", v, draws, wantDraws)
		}
		src := &sm64Source{s: SM64{state: start}}
		if want := rand.New(src).Float64(); got != want {
			t.Errorf("Uint64 %#x: Float64 %v, math/rand %v", v, got, want)
		}
		if src.s.state != fast.state {
			t.Errorf("Uint64 %#x: math/rand consumed %d draws, SM64 %d", v, (src.s.state-start)*goldenInv, draws)
		}
	}
}

func TestRetryCounters(t *testing.T) {
	if len(retryCounters) != 1<<10 {
		t.Fatalf("%d retry counters, want 1024", len(retryCounters))
	}
	for i, c := range retryCounters {
		if i > 0 && c <= retryCounters[i-1] {
			t.Fatalf("retry counters not strictly ascending at %d", i)
		}
		if v := finalize(c * golden); v < retryMin {
			t.Fatalf("counter %#x yields %#x, below the retry threshold", c, v)
		}
	}
}

// checkSkip compares SkipFloat64(k) with k Float64 calls from state start.
func checkSkip(t *testing.T, start uint64, k int) {
	t.Helper()
	slow, fast := SM64{state: start}, SM64{state: start}
	for i := 0; i < k; i++ {
		slow.Float64()
	}
	fast.SkipFloat64(k)
	if slow.state != fast.state {
		t.Fatalf("start %#x: SkipFloat64(%d) advanced %d draws, %d Float64 calls %d",
			start, k, (fast.state-start)*goldenInv, k, (slow.state-start)*goldenInv)
	}
}

// TestSkipFloat64MatchesFloat64 checks the skip-ahead on random windows and
// on windows built around an inverted retry state: at the first, a middle
// and the last position (the skip must consume the extra draw), and one
// past the last (the retry belongs to the next call and must not be
// consumed).
func TestSkipFloat64MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		checkSkip(t, rng.Uint64(), rng.Intn(3000))
	}
	for _, j := range []int{0, 1, 511, 1023} {
		rc := retryCounters[j]
		for _, k := range []int{1, 2, 7, 500} {
			for _, pos := range []int{1, (k + 1) / 2, k, k + 1} {
				// Draw pos of the window uses counter c0 + pos.
				checkSkip(t, (rc-uint64(pos))*golden, k)
			}
		}
	}
	// A window wrapping through counter 0 exercises the search's wrap.
	wrap := ^uint64(0) - 3
	checkSkip(t, wrap*golden, 10)
	checkSkip(t, 12345, 0)
}
