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

// The edge cases of tailDPAVX2's blocked pass, as pairEvents finds them.
const (
	evOddRounds        = iota // an odd number of band rounds: the last has no partner
	evEvenRounds              // an even number of band rounds
	evCertainInPair           // p = 1 tuples between the two rounds of a pair
	evHiReachesKInPair        // hi first reaches k at a pair's round 2
	evFloorPassesCell1        // cell 0 is in round 1's band, not in round 2's
	numPairEvents
)

// pairEvents walks probs with tailDPAVX2's pairing rule — band rounds pair
// up in order, certain tuples in between shift off, the walk ends once off
// reaches k — and reports which of the edge cases above the tail meets.
func pairEvents(probs []float64, k int) (ev [numPairEvents]bool) {
	n := len(probs)
	hi, off, rounds := 0, 0, 0
	pending, certain := false, false
	var hi1, floor1 int
	for idx, p := range probs {
		if hi < k {
			hi++
		}
		lo := k - n + idx + 1
		if p == 1 {
			certain = certain || pending
			if off++; off >= k {
				break
			}
			continue
		}
		rounds++
		if !pending {
			pending, certain, hi1, floor1 = true, false, hi, lo-off
			continue
		}
		pending = false
		ev[evCertainInPair] = ev[evCertainInPair] || certain
		ev[evHiReachesKInPair] = ev[evHiReachesKInPair] || (hi1 < k && hi == k)
		ev[evFloorPassesCell1] = ev[evFloorPassesCell1] || (floor1 == 0 && lo-off == 1)
	}
	ev[evOddRounds+rounds%2] = true
	return ev
}

// TestTailDPAVX2MatchesGeneric runs the one-routine DP and the textbook DP
// on identical vectors and requires the same bits. Short vectors run at
// every threshold from 1 to n, with no certain tuple and with a run of one
// to three certain tuples at every position, so every edge of the blocked
// pass occurs at both parities of the pairing: odd and even numbers of
// band rounds, certain tuples inside a pair, hi first reaching k at round
// 2 and the floor passing cell 1 between the rounds (the test fails if
// one never occurs). Longer vectors mix certain, impossible, subnormal and
// generic tuples at random thresholds, so bands of every width and both
// floor regimes occur.
func TestTailDPAVX2MatchesGeneric(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU without AVX2: the portable DP is the only one that runs")
	}
	rng := rand.New(rand.NewSource(59))
	var seen [numPairEvents]int
	check := func(probs []float64, k int) {
		t.Helper()
		want := refWindowDP(make([]float64, k+1), probs, k)
		var s Scratch
		s.dist = make([]float64, dpGuard+k+1)
		for i := range s.dist {
			s.dist[i] = sweepCell(rng) // stale contents must not leak
		}
		if got := dpTail(s.dpBuf(k+1), probs, k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d k=%d: one-routine DP %v, textbook DP %v\nprobs=%v", len(probs), k, got, want, probs)
		}
		for e, ok := range pairEvents(probs, k) {
			if ok {
				seen[e]++
			}
		}
	}
	for n := 1; n <= 24; n++ {
		base := make([]float64, n)
		for i := range base {
			base[i] = rng.Float64()
		}
		for k := 1; k <= n; k++ {
			check(base, k)
			for run := 1; run <= 3; run++ {
				for at := 0; at+run <= n; at++ {
					probs := append([]float64(nil), base...)
					for i := at; i < at+run; i++ {
						probs[i] = 1
					}
					check(probs, k)
				}
			}
		}
	}
	for e, c := range seen {
		if c == 0 {
			t.Fatalf("edge case %d of the blocked pass never occurred", e)
		}
	}
	for n := 1; n <= 40; n++ {
		for trial := 0; trial < 20; trial++ {
			probs := make([]float64, n)
			for i := range probs {
				probs[i] = sweepCell(rng)
			}
			for k := 1; k <= n; k++ {
				check(probs, k)
			}
		}
	}
	for trial := 0; trial < 2000; trial++ {
		n := 41 + rng.Intn(600)
		probs := make([]float64, n)
		certain := rng.Float64() / 2
		for i := range probs {
			if rng.Float64() < certain {
				probs[i] = 1
			} else {
				probs[i] = sweepCell(rng)
			}
		}
		check(probs, 1+rng.Intn(n))
	}
}

// TestLeafPMFAVX2MatchesFoldTuple runs the two-tuples-per-pass leaf and the
// foldTuple chain on identical vectors of every length 1…convLeafN+1, at
// thresholds below, at and above the length (absorbing, absorbing from
// the last tuple, and the full PMF), and requires every cell to agree bit
// for bit.
func TestLeafPMFAVX2MatchesFoldTuple(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU without AVX2: the portable leaf is the only one that runs")
	}
	rng := rand.New(rand.NewSource(61))
	var s Scratch
	for n := 1; n <= convLeafN+1; n++ {
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = sweepCell(rng)
		}
		for _, k := range []int{1, (n + 1) / 2, n - 1, n, n + 1} {
			if k < 1 {
				continue
			}
			L := min(n, k)
			want := make([]float64, L+1)
			leafPMFGeneric(want, probs, k)
			s.dist = make([]float64, dpGuard+L+1)
			for i := range s.dist {
				s.dist[i] = sweepCell(rng) // stale contents must not leak
			}
			got := make([]float64, L+1)
			s.leafPMF(got, probs, k)
			if i := firstBitDiff(want, got); i >= 0 {
				t.Fatalf("n=%d k=%d: cell %d = %v, foldTuple chain %v", n, k, i, got[i], want[i])
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

// TestBandCellsAVX2MatchesGeneric is the same check for one column of the
// sampler table build: every band length 0…70, including tails that are 0
// (their cells are NaN, compared bit for bit).
func TestBandCellsAVX2MatchesGeneric(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU without AVX2: the portable band is the only one that runs")
	}
	rng := rand.New(rand.NewSource(47))
	for m := 0; m <= 70; m++ {
		for trial := 0; trial < 40; trial++ {
			next := make([]float64, m+1)
			for i := range next {
				next[i] = sweepCell(rng)
			}
			p := sweepCell(rng)
			cell, row := make([]float64, m), make([]float64, m)
			wantCell, wantRow := make([]float64, m), make([]float64, m)
			bandCellsGeneric(wantCell, wantRow, next, p, 1-p)
			bandCellsAVX2(cell, row, next, p, 1-p)
			if i := firstBitDiff(wantRow, row); i >= 0 {
				t.Fatalf("m %d p=%v: row %d = %v, generic %v", m, p, i, row[i], wantRow[i])
			}
			if i := firstBitDiff(wantCell, cell); i >= 0 {
				t.Fatalf("m %d p=%v: cell %d = %v, generic %v", m, p, i, cell[i], wantCell[i])
			}
		}
	}
}

// BenchmarkCountCovers walks 64 conditioned worlds per op over a
// Mushroom-sized clause (n = 400, k = 130, 24 escape bits), with the
// vector walker (where the CPU has AVX2) and with the scalar walk.
func BenchmarkCountCovers(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const n, k = 400, 130
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = 0.2 + 0.8*rng.Float64()
	}
	cs, err := NewCondSampler(probs, k)
	if err != nil {
		b.Fatal(err)
	}
	masks, union := walkMasks(rng, n, 24, 0.1)
	want, acc := []uint64{union}, make([]uint64, 1)
	for _, vector := range []bool{true, false} {
		b.Run(map[bool]string{true: "vector", false: "scalar"}[vector], func(b *testing.B) {
			defer func(v bool) { useAVX2 = v }(useAVX2)
			useAVX2 = useAVX2 && vector
			g := NewSM64(3)
			for i := 0; i < b.N; i++ {
				cs.CountCovers(g, masks, want, acc, 64)
			}
		})
	}
}

// BenchmarkCountCoversMined is one walked clause at the shape perfbench's
// Mushroom classes sample: n = 478 tuples with the paper's Gaussian
// probabilities clamped to [0.01, 1], k = 95, a one-word want of two
// earlier clauses and 4 escape positions, drawn first. Each op builds the
// table and walks 1024 worlds, with the vector walker (where the CPU has
// AVX2) and with the scalar walk.
func BenchmarkCountCoversMined(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const n, k, walked = 478, 95, 4
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = min(1, max(0.01, 0.5+0.5*rng.NormFloat64()))
	}
	masks := make([]uint64, walked)
	for i := range masks {
		probs[i] = 0.2 + 0.7*rng.Float64() // an escape position is uncertain
		masks[i] = 1 + uint64(rng.Intn(3))
	}
	want, acc := []uint64{3}, make([]uint64, 1)
	var cs CondSampler
	for _, vector := range []bool{true, false} {
		b.Run(map[bool]string{true: "vector", false: "scalar"}[vector], func(b *testing.B) {
			defer func(v bool) { useAVX2 = v }(useAVX2)
			useAVX2 = useAVX2 && vector
			g := NewSM64(3)
			for i := 0; i < b.N; i++ {
				if err := cs.Reset(probs, k, walked); err != nil {
					b.Fatal(err)
				}
				cs.CountCovers(g, masks, want, acc, 1024)
			}
		})
	}
}
