package dnf

import (
	"fmt"
	"slices"

	"github.com/probdata/pfcim/internal/bitset"
	"github.com/probdata/pfcim/internal/poibin"
)

// Sampler is the Karp–Luby working state — the conditional sampler table,
// clause counts and escape masks — rebuilt in place for every clause of
// every call. The zero value is ready to use. A System samples with its own
// unless its Sampler field names one: a caller that holds many Systems but
// samples them one at a time shares one Sampler among them.
type Sampler struct {
	cs     poibin.CondSampler
	cum    []float64
	counts []int
	esc    []uint64  // per-tid escape words, see escapes
	masks  []uint64  // per-position escape words of the current clause
	rest   []float64 // probabilities of its positions that escape nothing
	want   []uint64  // escape words a scoring sample must cover
	union  []uint64  // OR of the current clause's masks, then Covers scratch
}

// KarpLuby estimates Pr(C_1 ∪ … ∪ C_m) by coverage sampling (the
// ApproxFCP sampler of the paper's Fig. 2): each sample draws a clause C_i
// with probability Pr(C_i)/Z, then a possible world conditioned on C_i, and
// scores iff i is the smallest index of a clause the world satisfies. The
// estimate is Z · hits / N.
//
// A world conditioned on C_i forces Base\B_i absent and draws the tids of
// B_i from the Poisson-binomial law conditioned on "≥ MinSup present"
// (poibin.CondSampler). Every present tid then lies inside B_i, so C_i
// holds and an earlier clause C_j holds exactly when no present tid
// escapes B_j. Only the escape positions — tids of B_i outside some
// earlier B_j of nonzero probability — can decide that, so the sampler
// draws them first, in ascending tid order, and the other tids after them,
// also in tid order (DESIGN §3.5). The chain-rule sampler draws the same
// joint law in any variable order, so the order changes which world a
// seed gives, not the estimator. The walk visits the escape positions
// only and stops as soon as every earlier clause of nonzero probability
// has been escaped: the remaining draws are skipped by counter, so the
// uniform stream — and with it the estimate and the generator's final
// state — is exactly the one drawing every world in full would produce.
// Samples whose verdict is known before any draw (clause 0, which no
// earlier clause can beat; a clause some earlier clause contains; a
// zero-probability clause, which never scores) skip their worlds
// wholesale, and run the sampler's tails only when it takes them to show
// that the clause's constraint has nonzero probability
// (poibin.CondSampler.ResetSkip). The others are walked by
// poibin.CondSampler.CountCovers, eight worlds at a time where the CPU
// allows, over a table of the escape positions' columns only.
//
// clauseProbs must be the exact Pr(C_i) values (e.g. Sums.Clause). The
// estimator is unbiased; with nSamples = SampleSize(m, ε, δ) it is an
// (ε, δ) additive approximation. Clauses must be subsets of Base (the
// NewSystem invariant).
func (s *System) KarpLuby(rng *poibin.SM64, clauseProbs []float64, nSamples int) (float64, error) {
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

	// Allocate each clause its multinomial share of the sample budget up
	// front so that one conditional sampler per clause serves all of that
	// clause's draws.
	kl := s.Sampler
	if kl == nil {
		kl = &s.own
	}
	counts := kl.multinomial(rng, nSamples, clauseProbs, z)

	hits := 0
	escapesBuilt := false
	for i, ni := range counts {
		if ni == 0 {
			continue
		}
		probs := s.probsOf(s.Clauses[i])
		// Only a sample whose verdict is open needs a walk. A
		// zero-probability clause is never the smallest satisfied clause
		// of nonzero probability; with no earlier clause of nonzero
		// probability every sample scores; and if some earlier clause
		// contains B_i, no world escapes it.
		var want, masks, union []uint64
		walk, score := false, false
		if clauseProbs[i] != 0 {
			if want = kl.earlier(i, clauseProbs); want == nil {
				score = true
			} else {
				if !escapesBuilt {
					kl.escapes(s, clauseProbs)
					escapesBuilt = true
				}
				masks, union = kl.clauseMasks(s, i, probs)
				walk = slices.Equal(union, want)
			}
		}
		cs := &kl.cs
		var err error
		if walk {
			err = cs.Reset(probs, s.MinSup, len(masks)/len(want))
		} else {
			err = cs.ResetSkip(probs, s.MinSup)
		}
		if err != nil {
			// Pr(C_i) > 0 guarantees the constraint is satisfiable; a
			// failure here indicates an inconsistent clause system.
			return 0, fmt.Errorf("dnf: clause %d: %w", i, err)
		}
		if !walk {
			cs.Skip(rng, ni)
			if score {
				hits += ni
			}
			continue
		}
		hits += cs.CountCovers(rng, masks, want, union, ni)
	}
	est := z * float64(hits) / float64(nSamples)
	if est > 1 {
		est = 1
	}
	return est, nil
}

// escapeWords is the number of escape words per tid: one bit per clause.
func (s *System) escapeWords() int { return (len(s.Clauses) + 63) / 64 }

// escapes fills kl's per-tid escape table for s: bit j of tid t's words
// is set iff Pr(C_j) > 0 and t ∈ Base\B_j, i.e. a world with t present
// escapes C_j.
func (kl *Sampler) escapes(s *System, clauseProbs []float64) {
	ew := s.escapeWords()
	esc := growWords(kl.esc, s.Base.Len()*ew)
	for t := range esc {
		esc[t] = 0
	}
	for j, bj := range s.Clauses {
		if clauseProbs[j] == 0 {
			continue
		}
		word, bit := j/64, uint64(1)<<(j%64)
		bitset.ForEachDiff(s.Base, bj, func(tid int) bool {
			esc[tid*ew+word] |= bit
			return true
		})
	}
	kl.esc = esc
}

// clauseMasks gathers, for each position of clause i (its tids in
// ascending order, probs their probabilities), the escape bits of the
// clauses before i: w = ⌈i/64⌉ words per position. It orders the positions
// escape positions first — those with a bit set — and the rest after them,
// each group in ascending tid order, permuting probs to match, and returns
// the escape positions' masks only: the rest are zero. The returned union
// (w words) is their OR; once checked, KarpLuby hands it to CountCovers as
// scratch.
func (kl *Sampler) clauseMasks(s *System, i int, probs []float64) (masks, union []uint64) {
	ew, w := s.escapeWords(), (i+63)/64
	last := ^uint64(0)
	if i%64 != 0 {
		last = 1<<(i%64) - 1
	}
	masks = growWords(kl.masks, len(probs)*w)
	union = growWords(kl.union, w)
	for j := range union {
		union[j] = 0
	}
	rest := kl.rest[:0]
	esc, p, walked := kl.esc, 0, 0
	s.Clauses[i].ForEach(func(tid int) bool {
		dst := masks[walked*w : walked*w+w]
		copy(dst, esc[tid*ew:tid*ew+w])
		dst[w-1] &= last
		var escapes uint64
		for j, b := range dst {
			union[j] |= b
			escapes |= b
		}
		// A stable compaction: walked ≤ p, so probs[p] is read before
		// any later write lands on it.
		if escapes != 0 {
			probs[walked] = probs[p]
			walked++
		} else {
			rest = append(rest, probs[p])
		}
		p++
		return true
	})
	copy(probs[walked:], rest)
	kl.masks, kl.union, kl.rest = masks, union, rest
	return masks[:walked*w], union
}

// earlier returns the bits of the clauses before i with nonzero
// probability, ⌈i/64⌉ words in kl's scratch, or nil if there are none.
func (kl *Sampler) earlier(i int, clauseProbs []float64) []uint64 {
	want := growWords(kl.want, (i+63)/64)
	kl.want = want
	found := false
	for j := range want {
		want[j] = 0
	}
	for j, p := range clauseProbs[:i] {
		if p != 0 {
			want[j/64] |= 1 << (j % 64)
			found = true
		}
	}
	if !found {
		return nil
	}
	return want
}

// growWords returns b resized to n, reallocating with doubling headroom.
func growWords(b []uint64, n int) []uint64 {
	if cap(b) < n {
		return make([]uint64, n, max(n, 2*cap(b)))
	}
	return b[:n]
}

// multinomial splits n samples across clauses proportionally to
// clauseProbs/z by drawing each sample's clause index independently. The
// returned counts live in kl's scratch.
func (kl *Sampler) multinomial(rng *poibin.SM64, n int, clauseProbs []float64, z float64) []int {
	m := len(clauseProbs)
	if cap(kl.cum) < m {
		kl.cum, kl.counts = make([]float64, m), make([]int, m)
	}
	cum, counts := kl.cum[:m], kl.counts[:m]
	acc := 0.0
	for i, p := range clauseProbs {
		acc += p / z
		cum[i] = acc
		counts[i] = 0
	}
	for k := 0; k < n; k++ {
		u := rng.Float64()
		// Binary search over the cumulative weights.
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
