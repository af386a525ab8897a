package poibin

import (
	"math"
	"math/rand"
	"testing"
)

// The miner computes Pr[S ≥ k] over a tidset from its uncertain tuples
// alone, at threshold k − c for c certain (p = 1) tuples: a certain tuple's
// generating-function factor is z, a pure shift. These tests pin that
// identity against the 256-bit reference and against the full-vector tail.

// stripCertain returns probs without its certain tuples, in order, and how
// many there were.
func stripCertain(probs []float64) (u []float64, c int) {
	for _, p := range probs {
		if p == 1 {
			c++
			continue
		}
		u = append(u, p)
	}
	return u, c
}

// bigTail is Pr[S ≥ k] in 256-bit arithmetic.
func bigTail(probs []float64, k int) float64 {
	switch {
	case k <= 0:
		return 1
	case k > len(probs):
		return 0
	}
	return bigPMFTrunc(probs, k)[k]
}

// checkStripped fails t unless the tail over probs' uncertain tuples at
// k − c is within 1e-14 of both the exact tail and Scratch.Tail over all
// of probs at k.
func checkStripped(t *testing.T, s *Scratch, probs []float64, k int) {
	t.Helper()
	u, c := stripCertain(probs)
	got := s.Tail(u, k-c)
	exact := bigTail(probs, k)
	full := s.Tail(probs, k)
	if d := math.Abs(got - exact); d > 1e-14 {
		t.Fatalf("n=%d c=%d k=%d: stripped tail %v, exact %v (diff %g)", len(probs), c, k, got, exact, d)
	}
	if d := math.Abs(got - full); d > 1e-14 {
		t.Fatalf("n=%d c=%d k=%d: stripped tail %v, full-vector tail %v (diff %g)", len(probs), c, k, got, full, d)
	}
}

// TestTailStrippedMatchesBig runs the identity on certain-heavy vectors
// (a quarter to nine tenths certain, the rest clamped-Gaussian or uniform)
// at every threshold from c − 2 to c + 2, where the certain tuples alone
// decide or nearly decide the tail, and at two random thresholds.
func TestTailStrippedMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	var s Scratch
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(400)
		share := []float64{0.25, 0.5, 0.9}[trial%3]
		probs := make([]float64, n)
		c := 0
		for i := range probs {
			switch {
			case rng.Float64() < share:
				probs[i] = 1
				c++
			case trial%2 == 0:
				probs[i] = min(max(rng.NormFloat64()*math.Sqrt(0.5)+0.5, 0.01), 0.999)
			default:
				probs[i] = rng.Float64()
			}
		}
		for _, k := range []int{c - 2, c - 1, c, c + 1, c + 2, c + rng.Intn(n-c+2), 1 + rng.Intn(n+1)} {
			checkStripped(t, &s, probs, k)
		}
	}
}

// FuzzTailStripped is the identity on fuzzed vectors of certain,
// impossible, subnormal and generic tuples (fuzzProbs), at a threshold
// within 8 of the certain count. Plain `go test` runs the seed corpus.
func FuzzTailStripped(f *testing.F) {
	f.Add([]byte{0xFF, 0xFF, 0, 0, 3, 0, 0x00, 0x80}, int8(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, int8(-1))
	f.Add([]byte{1, 0, 0xFF, 0xFF, 0x10, 0x20, 0xFF, 0xFF, 0, 0x90}, int8(1))
	rng := rand.New(rand.NewSource(97))
	for i := 0; i < 30; i++ {
		data := make([]byte, 2*(1+rng.Intn(300)))
		for j := 0; j < len(data); j += 2 {
			u := uint16(rng.Intn(0x10000))
			if rng.Intn(3) == 0 {
				u = 0xFFFF
			}
			data[j], data[j+1] = byte(u), byte(u>>8)
		}
		f.Add(data, int8(rng.Intn(17)-8))
	}
	f.Fuzz(func(t *testing.T, data []byte, off int8) {
		probs := fuzzProbs(data)
		_, c := stripCertain(probs)
		var s Scratch
		checkStripped(t, &s, probs, c+int(off)%9)
	})
}
