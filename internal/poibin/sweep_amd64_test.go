package poibin

import (
	"math"
	"math/rand"
	"testing"
)

// sweepCell draws a PMF-like cell: mostly generic values, with exact zeros,
// ones and subnormals mixed in.
func sweepCell(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
	default:
		return rng.Float64()
	}
}

// TestSweepDownAVX2MatchesGeneric runs the assembly and the portable sweep
// on identical vectors for every band length 0…70 — all remainders of the
// eight-, four- and one-cell blocks — at random offsets, and requires every
// cell of the vector, inside the band or not, to agree bit for bit.
func TestSweepDownAVX2MatchesGeneric(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU without AVX2: the portable sweep is the only one that runs")
	}
	rng := rand.New(rand.NewSource(41))
	for band := 0; band <= 70; band++ {
		for trial := 0; trial < 40; trial++ {
			lo := 1 + rng.Intn(9)
			hi := lo + band - 1
			d := make([]float64, hi+1+rng.Intn(9))
			for i := range d {
				d[i] = sweepCell(rng)
			}
			p := sweepCell(rng)
			q := 1 - p
			want := append([]float64(nil), d...)
			sweepDownGeneric(want, lo, hi, q, p)
			sweepDownAVX2(d, lo, hi, q, p)
			if i := firstBitDiff(want, d); i >= 0 {
				t.Fatalf("band %d lo %d p=%v: cell %d = %v, generic %v", band, lo, p, i, d[i], want[i])
			}
		}
	}
}

// TestAxpyAVX2MatchesGeneric is the same check for the convolution row.
func TestAxpyAVX2MatchesGeneric(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU without AVX2: the portable axpy is the only one that runs")
	}
	rng := rand.New(rand.NewSource(43))
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 40; trial++ {
			off := rng.Intn(5)
			dst := make([]float64, off+n+rng.Intn(5))
			src := make([]float64, n+rng.Intn(5))
			for i := range dst {
				dst[i] = sweepCell(rng)
			}
			for i := range src {
				src[i] = sweepCell(rng)
			}
			a := sweepCell(rng)
			want := append([]float64(nil), dst...)
			axpyGeneric(want[off:off+n], src, a)
			axpyAVX2(dst[off:off+n], src, a)
			if i := firstBitDiff(want, dst); i >= 0 {
				t.Fatalf("n %d off %d a=%v: cell %d = %v, generic %v", n, off, a, i, dst[i], want[i])
			}
		}
	}
}
