package poibin

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refWindowDP is the textbook absorbing-truncated DP, kept as the reference
// implementation: full k+1 window every round, O(k) copy for p = 1 tuples.
// The production tailDP must reproduce it bit for bit — its window offset,
// rising floor, and early absorb-exit are all arguments about IEEE
// exactness, and this test is where those arguments meet the hardware.
func refWindowDP(dist []float64, probs []float64, k int) float64 {
	for i := range dist {
		dist[i] = 0
	}
	dist[0] = 1
	hi := 0
	for _, p := range probs {
		if hi < k {
			hi++
		}
		top := hi
		if top > k-1 {
			top = k - 1
		}
		if p == 1 {
			if hi == k {
				dist[k] += dist[k-1]
			}
			copy(dist[1:top+1], dist[:top])
			dist[0] = 0
			continue
		}
		q := 1 - p
		if hi == k {
			dist[k] += float64(dist[k-1] * p)
		}
		for c := top; c >= 1; c-- {
			dist[c] = float64(dist[c]*q) + float64(dist[c-1]*p)
		}
		dist[0] *= q
	}
	if dist[k] > 1 {
		return 1
	}
	return dist[k]
}

// TestTailDPMatchesReference fuzzes the windowed tailDP against the
// reference DP and requires exact (==, not ≈) agreement, across vectors
// mixing certain tuples, near-zero clamps, and generic probabilities, at
// every threshold.
func TestTailDPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(700)
		k := 1 + rng.Intn(n)
		probs := make([]float64, n)
		for i := range probs {
			switch rng.Intn(5) {
			case 0:
				probs[i] = 1
			case 1:
				probs[i] = 0.01
			default:
				probs[i] = rng.Float64()
			}
		}
		d1 := make([]float64, k+1)
		d2 := make([]float64, k+1)
		a := refWindowDP(d1, probs, k)
		b := tailDP(d2, probs, k)
		if a != b {
			t.Fatalf("trial %d n=%d k=%d: ref=%v got=%v diff=%g\nprobs=%v", trial, n, k, a, b, a-b, probs)
		}
	}
	// Long vectors with a high certain-tuple rate: the early absorb-exit
	// (off ≥ k) and deep floor both engage.
	for trial := 0; trial < 200; trial++ {
		n := 200 + rng.Intn(400)
		k := 1 + rng.Intn(n)
		probs := make([]float64, n)
		for i := range probs {
			if rng.Float64() < 0.3 {
				probs[i] = 1
			} else {
				probs[i] = rng.Float64()
			}
		}
		d1 := make([]float64, k+1)
		d2 := make([]float64, k+1)
		a := refWindowDP(d1, probs, k)
		b := tailDP(d2, probs, k)
		if a != b {
			t.Fatalf("long trial %d n=%d k=%d: ref=%v got=%v", trial, n, k, a, b)
		}
	}
}

// firstBitDiff returns the first index where a and b (at least as long) differ
// in their bit patterns, or −1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// fuzzProbs decodes a probability vector two bytes per tuple: 0xFFFF is a
// certain tuple, 0 an impossible one, values below 64 are subnormal, and
// everything else is a generic probability.
func fuzzProbs(data []byte) []float64 {
	probs := make([]float64, 0, len(data)/2)
	for i := 0; i+1 < len(data) && len(probs) < 700; i += 2 {
		u := binary.LittleEndian.Uint16(data[i:])
		switch {
		case u == 0xFFFF:
			probs = append(probs, 1)
		case u < 64:
			probs = append(probs, float64(u)*math.SmallestNonzeroFloat64*(1<<20))
		default:
			probs = append(probs, float64(u)/0x10000)
		}
	}
	return probs
}

// FuzzTailKernels checks every exact-tail entry point against the textbook
// DP bit for bit: Scratch.Tail, the absorbing bin of PMFTrunc, and a PMF
// grown one tuple at a time by UpdatePMF, which must also equal PMFTrunc
// cell for cell, whether k is at most n (the vector absorbs) or above it
// (the full PMF). Plain `go test` runs the seed corpus: hand-picked vectors
// plus random ones mixing p = 1, p = 0, subnormal and generic tuples.
func FuzzTailKernels(f *testing.F) {
	f.Add([]byte{0xFF, 0xFF, 0, 0, 3, 0, 0x00, 0x80}, uint16(1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint16(2))
	f.Add([]byte{1, 0, 2, 0, 0x10, 0x20, 0xFF, 0xFF, 0, 0}, uint16(3))
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 60; i++ {
		data := make([]byte, 2*(1+rng.Intn(700)))
		for j := 0; j < len(data); j += 2 {
			u := uint16(rng.Intn(0x10000))
			switch rng.Intn(6) {
			case 0:
				u = 0xFFFF
			case 1:
				u = 0
			case 2:
				u %= 64
			}
			binary.LittleEndian.PutUint16(data[j:], u)
		}
		f.Add(data, uint16(rng.Intn(0x10000)))
	}
	f.Fuzz(func(t *testing.T, data []byte, kSeed uint16) {
		probs := fuzzProbs(data)
		n := len(probs)
		if n == 0 {
			return
		}
		// About a third of the draws put k above n: PMFTrunc's part is then
		// shorter than k, never absorbs and returns its full PMF.
		k := 1 + int(kSeed)%(n+n/2+1)
		want := refWindowDP(make([]float64, k+1), probs, k)
		var s Scratch
		if got := s.Tail(probs, k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d k=%d: Scratch.Tail = %v, textbook DP %v", n, k, got, want)
		}
		v := s.PMFTrunc(probs, k)
		if got := TailOfPMF(v, k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d k=%d: PMFTrunc tail = %v, textbook DP %v", n, k, got, want)
		}
		u := NewPMF()
		for _, p := range probs {
			u = UpdatePMF(u, p, k)
		}
		if len(u) != len(v) {
			t.Fatalf("n=%d k=%d: UpdatePMF chain has %d cells, PMFTrunc %d", n, k, len(u), len(v))
		}
		if i := firstBitDiff(v, u); i >= 0 {
			t.Fatalf("n=%d k=%d: UpdatePMF chain cell %d = %v, PMFTrunc %v", n, k, i, u[i], v[i])
		}
	})
}
