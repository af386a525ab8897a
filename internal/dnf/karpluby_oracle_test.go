package dnf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/probdata/pfcim/internal/bitset"
	"github.com/probdata/pfcim/internal/poibin"
)

// The Karp–Luby estimator before the early-stopping walk, kept as a
// differential oracle: it materializes every sampled world into a dense
// present-set and scans the clauses for the smallest one satisfied.
// KarpLuby must reproduce its estimate and leave the generator in the
// same state, bit for bit.
//
// The oracle also defines the realization: the order in which a world
// conditioned on clause C_i draws its tids. When C_i has nonzero
// probability, the escape positions — tids of B_i outside some earlier
// B_j of nonzero probability — come first, in ascending tid order, and the
// other tids follow, also in ascending order. Every other clause draws in
// tid order; there every position escapes nothing, or no world is
// walked.

// oracleSampler is the conditional sampler over the full (n+1)×(k+1)
// suffix-tail table.
type oracleSampler struct {
	probs []float64
	k, n  int
	pone  []float64 // entry [i][r] at r·n+i; NaN where tail[i][r] = 0, never walked
}

func newOracleSampler(probs []float64, k int) (*oracleSampler, error) {
	n := len(probs)
	if k < 0 {
		k = 0
	}
	if k > n {
		return nil, fmt.Errorf("poibin: constraint sum ≥ %d unsatisfiable with %d variables", k, n)
	}
	tail := make([]float64, (n+1)*(k+1))
	tail[n*(k+1)] = 1
	for i := n - 1; i >= 0; i-- {
		p := probs[i]
		row := tail[i*(k+1) : (i+1)*(k+1)]
		next := tail[(i+1)*(k+1) : (i+2)*(k+1)]
		row[0] = 1
		for r := 1; r <= k; r++ {
			succ := next[r-1]
			row[r] = float64(p*succ) + float64((1-p)*next[r])
		}
	}
	if tail[k] <= 0 {
		return nil, fmt.Errorf("poibin: constraint sum ≥ %d has probability 0", k)
	}
	pone := make([]float64, n*(k+1))
	for i := 0; i < n; i++ {
		row := tail[i*(k+1) : (i+1)*(k+1)]
		next := tail[(i+1)*(k+1) : (i+2)*(k+1)]
		for r := 1; r <= k; r++ {
			if denom := row[r]; denom > 0 {
				pone[r*n+i] = probs[i] * next[r-1] / denom
			} else {
				pone[r*n+i] = math.NaN()
			}
		}
	}
	return &oracleSampler{probs: append([]float64(nil), probs...), k: k, n: n, pone: pone}, nil
}

// sampleWords draws one world, walking every position, into the dense
// words of a cleared present-set: bit tids[i] is set iff x_i = 1. It
// panics if the walk enters a NaN cell, which no walk can reach.
func (cs *oracleSampler) sampleWords(rng *poibin.SM64, tids []int, words []uint64) {
	r := cs.k
	for i := 0; i < cs.n; i++ {
		var on bool
		if r == 0 {
			on = rng.Float64() < cs.probs[i]
		} else if p := cs.pone[r*cs.n+i]; p != p {
			panic(fmt.Sprintf("dnf: oracle walk reached NaN cell (%d, %d) of n=%d k=%d", i, r, cs.n, cs.k))
		} else {
			on = rng.Float64() < p
		}
		if on {
			if r > 0 {
				r--
			}
			t := uint(tids[i])
			words[t/64] |= 1 << (t % 64)
		}
	}
}

// oracleMinSatisfied returns the smallest index of a nonzero-probability
// clause containing the present-set, or -1.
func oracleMinSatisfied(s *System, present *bitset.Bitset, clauseProbs []float64) int {
	for j, bj := range s.Clauses {
		if clauseProbs[j] == 0 {
			continue
		}
		if bitset.IsSubset(present, bj) {
			return j
		}
	}
	return -1
}

func oracleMultinomial(rng *poibin.SM64, n int, clauseProbs []float64, z float64) []int {
	cum := make([]float64, len(clauseProbs))
	acc := 0.0
	for i, p := range clauseProbs {
		acc += p / z
		cum[i] = acc
	}
	counts := make([]int, len(clauseProbs))
	for k := 0; k < n; k++ {
		u := rng.Float64()
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		counts[lo]++
	}
	return counts
}

func oracleKarpLuby(s *System, rng *poibin.SM64, clauseProbs []float64, nSamples int) (float64, error) {
	m := len(s.Clauses)
	if len(clauseProbs) != m {
		return 0, fmt.Errorf("dnf: KarpLuby got %d clause probs for %d clauses", len(clauseProbs), m)
	}
	if m == 0 || nSamples <= 0 {
		return 0, nil
	}
	z := 0.0
	for _, p := range clauseProbs {
		z += p
	}
	if z == 0 {
		return 0, nil
	}
	counts := oracleMultinomial(rng, nSamples, clauseProbs, z)
	hits := 0
	present := bitset.New(s.Base.Len())
	words := present.DenseWords()
	for i, ni := range counts {
		if ni == 0 {
			continue
		}
		tids := oracleOrder(s, i, clauseProbs)
		probs := make([]float64, len(tids))
		for t, tid := range tids {
			probs[t] = s.Probs[tid]
		}
		cs, err := newOracleSampler(probs, s.MinSup)
		if err != nil {
			return 0, fmt.Errorf("dnf: clause %d: %w", i, err)
		}
		for k := 0; k < ni; k++ {
			for w := range words {
				words[w] = 0
			}
			cs.sampleWords(rng, tids, words)
			if oracleMinSatisfied(s, present, clauseProbs) == i {
				hits++
			}
		}
	}
	est := z * float64(hits) / float64(nSamples)
	if est > 1 {
		est = 1
	}
	return est, nil
}

// oracleOrder returns clause i's tids in the order its worlds draw them:
// escape positions first when Pr(C_i) > 0, each group in ascending order.
func oracleOrder(s *System, i int, clauseProbs []float64) []int {
	tids := s.Clauses[i].Indices()
	if clauseProbs[i] == 0 {
		return tids
	}
	var escape, rest []int
	for _, t := range tids {
		escapes := false
		for j, bj := range s.Clauses[:i] {
			escapes = escapes || (clauseProbs[j] != 0 && !bj.Test(t))
		}
		if escapes {
			escape = append(escape, t)
		} else {
			rest = append(rest, t)
		}
	}
	return append(escape, rest...)
}

// oracleCase is one differential instance: a clause system, the clause
// probabilities handed to the estimator, and its sample budget and seed.
type oracleCase struct {
	sys         *System
	clauseProbs []float64
	nSamples    int
	seed        uint64
}

// tinyProb is small enough that the probability of two such tuples both
// being present underflows float64 — the source of NaN cells, which sit in
// a sampler table's band but which no walk reaches.
const tinyProb = 1e-170

// randomOracleCase draws an instance whose shape knobs — tuple count,
// clause count, probability mix, MinSup and zeroed clause probabilities —
// all come from rng, so fuzzing the seed covers every sampler path:
// underflowing tables with NaN cells, more than 64 clauses, zero-probability
// clauses, nested and duplicate clauses, sparse tidsets, and MinSup from 0
// to the full tidset size.
func randomOracleCase(rng *rand.Rand) oracleCase {
	n := rng.Intn(40) + 1
	probs := make([]float64, n)
	mix := rng.Intn(4)
	for i := range probs {
		switch u := rng.Float64(); {
		case mix >= 1 && u < 0.08:
			probs[i] = 0
		case mix >= 1 && u < 0.16:
			probs[i] = 1
		case mix >= 2 && u < 0.45:
			probs[i] = tinyProb * (1 + rng.Float64())
		default:
			probs[i] = rng.Float64()
		}
	}
	base := bitset.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.85 {
			base.Set(i)
		}
	}
	if !base.Any() {
		base.Set(rng.Intn(n))
	}
	var m int
	switch rng.Intn(4) {
	case 0:
		m = rng.Intn(150) + 60 // straddles the 64- and 128-clause word edges
	default:
		m = rng.Intn(12) + 1
	}
	keep := 0.4 + 0.55*rng.Float64()
	clauses := make([]*bitset.Bitset, m)
	for ci := range clauses {
		switch {
		case ci > 0 && rng.Float64() < 0.1:
			// Duplicate or subset of an earlier clause: never escapable.
			clauses[ci] = bitset.And(clauses[rng.Intn(ci)], base)
		default:
			b := bitset.New(n)
			base.ForEach(func(tid int) bool {
				if rng.Float64() < keep {
					b.Set(tid)
				}
				return true
			})
			clauses[ci] = b
		}
		if rng.Float64() < 0.3 {
			clauses[ci] = clauses[ci].Compacted()
		}
	}
	bc := base.Count()
	var minSup int
	switch rng.Intn(4) {
	case 0:
		minSup = 0
	case 1:
		minSup = bc
	default:
		minSup = rng.Intn(bc + 1)
	}
	sys, err := NewSystem(base, probs, minSup, clauses)
	if err != nil {
		panic(err)
	}
	clauseProbs := make([]float64, m)
	for i := range clauseProbs {
		clauseProbs[i] = sys.ClauseProb(i)
		switch u := rng.Float64(); {
		case u < 0.15:
			clauseProbs[i] = 0
		case u < 0.17:
			// Mislabelled: a sampled clause whose constraint may be
			// impossible must fail identically.
			clauseProbs[i] = 0.5
		}
	}
	return oracleCase{sys: sys, clauseProbs: clauseProbs, nSamples: rng.Intn(3000) + 1, seed: rng.Uint64()}
}

// checkAgainstOracle runs both estimators on c from the same seed and
// reports any difference in estimate bits, error, or final generator state.
func checkAgainstOracle(t *testing.T, c oracleCase) {
	t.Helper()
	wantRNG := poibin.NewSM64(c.seed)
	want, wantErr := oracleKarpLuby(c.sys, wantRNG, c.clauseProbs, c.nSamples)
	gotRNG := poibin.NewSM64(c.seed)
	got, gotErr := c.sys.KarpLuby(gotRNG, c.clauseProbs, c.nSamples)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("error %v, oracle %v", gotErr, wantErr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("estimate %v, oracle %v (m=%d, n=%d, minSup=%d, samples=%d)",
			got, want, c.sys.M(), c.sys.Base.Count(), c.sys.MinSup, c.nSamples)
	}
	// Equal next outputs mean equal states: the finalizer is a bijection.
	if g, w := gotRNG.Uint64(), wantRNG.Uint64(); g != w {
		t.Fatalf("generator state differs from the oracle's after sampling (next draw %#x, oracle %#x)", g, w)
	}
}

func TestKarpLubyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 400; trial++ {
		c := randomOracleCase(rng)
		t.Run(fmt.Sprint(trial), func(t *testing.T) { checkAgainstOracle(t, c) })
	}
}

// TestKarpLubyOracleCoverage pins that the random cases really reach the
// paths the oracle comparison is meant to cover; a generator drifting away
// from them would leave the differential test vacuous there.
func TestKarpLubyOracleCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var nanBand, wide, zeroProb, minSupZero, minSupFull bool
	for trial := 0; trial < 400; trial++ {
		c := randomOracleCase(rng)
		s := c.sys
		wide = wide || s.M() > 64
		minSupZero = minSupZero || s.MinSup == 0
		minSupFull = minSupFull || s.MinSup == s.Base.Count()
		for i, p := range c.clauseProbs {
			zeroProb = zeroProb || (p == 0 && i < s.M()-1)
		}
		nanBand = nanBand || hasNaNClause(s)
	}
	for name, ok := range map[string]bool{"NaN cell in band": nanBand, ">64 clauses": wide, "zero-probability clause": zeroProb, "MinSup 0": minSupZero, "MinSup n": minSupFull} {
		if !ok {
			t.Errorf("oracle cases never cover: %s", name)
		}
	}
}

// hasNaNClause reports whether some clause's sampler table has a NaN cell
// inside the walk's band k−i ≤ r ≤ n−i, where the oracle walk checks that
// it is never entered.
func hasNaNClause(s *System) bool {
	for _, bi := range s.Clauses {
		cs, err := newOracleSampler(s.probsOf(bi), s.MinSup)
		if err != nil {
			continue
		}
		for i := 0; i < cs.n; i++ {
			for r := max(1, cs.k-i); r <= cs.k && r <= cs.n-i; r++ {
				if p := cs.pone[r*cs.n+i]; p != p {
					return true
				}
			}
		}
	}
	return false
}

func FuzzKarpLubyMatchesOracle(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkAgainstOracle(t, randomOracleCase(rand.New(rand.NewSource(seed))))
	})
}
