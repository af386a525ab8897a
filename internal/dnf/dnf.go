// Package dnf computes and bounds the probability of the DNF event
// C_1 ∨ … ∨ C_m that makes an itemset frequent-but-non-closed
// (Definition 4.1). In the MPFCI setting every clause has the same shape:
//
//	C_i  =  "all transactions containing X but not e_i are absent"
//	        AND "sup(X + e_i) ≥ min_sup"
//
// so a clause is fully described by the tidset B_i of X+e_i inside the base
// tidset of X. Any conjunction of clauses then collapses to the same shape
// over the intersection ∩B_i, which makes exact single and pairwise
// probabilities cheap (Lemma 4.4's ingredients), inclusion–exclusion exact
// for small m, and Karp–Luby coverage sampling (the ApproxFCP estimator of
// Fig. 2) straightforward.
package dnf

import (
	"fmt"
	"math"

	"github.com/probdata/pfcim/internal/bitset"
	"github.com/probdata/pfcim/internal/poibin"
)

// System is the clause system attached to one candidate itemset X.
type System struct {
	// Base is the tidset of X: transactions that possibly contain X.
	Base *bitset.Bitset
	// Probs are the tuple existence probabilities indexed by tid; only tids
	// in Base are ever consulted.
	Probs []float64
	// MinSup is the support threshold of the mining task.
	MinSup int
	// Clauses holds B_i ⊆ Base for every extension item e_i.
	Clauses []*bitset.Bitset
	// TailFn, when non-nil, computes the Poisson-binomial tail
	// Pr[Σ Bernoulli ≥ MinSup] over the probabilities of the event tidset
	// b's members, gathering them itself. The miner injects its memoized
	// tail evaluator here so clause evaluations share the mining run's memo
	// (repeated intersections hit constantly on dense data) and a memo hit
	// gathers nothing; nil falls back to poibin.Tail over b's probability
	// vector in ascending tid order. An implementation must return the
	// same value its miner computes for the tidset b.
	TailFn func(b *bitset.Bitset) float64
	// Sampler, when non-nil, is the Karp–Luby working state KarpLuby uses
	// instead of the System's own.
	Sampler *Sampler

	probsBuf   []float64      // scratch for probsOf
	interBuf   *bitset.Bitset // scratch for PairProb intersections
	sumsClause []float64      // scratch for ComputeSumsReuse
	sumsPair   [][]float64
	sumsFlat   []float64
	own        Sampler // KarpLuby working state when Sampler is nil
}

// Reuse repoints s at a new clause system while keeping its internal
// scratch buffers (and TailFn and Sampler); the miner calls it once per
// evaluated node so the hot path allocates no per-node System state.
// Callers are responsible for the NewSystem invariants (clauses ⊆ base).
func (s *System) Reuse(base *bitset.Bitset, probs []float64, minSup int, clauses []*bitset.Bitset) {
	s.Base, s.Probs, s.MinSup, s.Clauses = base, probs, minSup, clauses
}

// NewSystem validates the clause shapes.
func NewSystem(base *bitset.Bitset, probs []float64, minSup int, clauses []*bitset.Bitset) (*System, error) {
	if base.Len() != len(probs) {
		return nil, fmt.Errorf("dnf: base capacity %d != len(probs) %d", base.Len(), len(probs))
	}
	for i, c := range clauses {
		if !bitset.IsSubset(c, base) {
			return nil, fmt.Errorf("dnf: clause %d is not a subset of the base tidset", i)
		}
	}
	return &System{Base: base, Probs: probs, MinSup: minSup, Clauses: clauses}, nil
}

// M returns the number of clauses.
func (s *System) M() int { return len(s.Clauses) }

// eventProb returns the probability of the canonical event "every tid in
// Base\B is absent AND at least MinSup tids of B are present". The
// ascending-tid iteration order of both the absence product and the
// probability vector matches the dense word order exactly, keeping results
// bit-identical across tidset representations.
func (s *System) eventProb(b *bitset.Bitset) float64 {
	absent := 1.0
	bitset.ForEachDiff(s.Base, b, func(tid int) bool {
		absent *= 1 - s.Probs[tid]
		return true
	})
	if absent == 0 {
		return 0
	}
	if s.TailFn != nil {
		return absent * s.TailFn(b)
	}
	return absent * poibin.Tail(s.probsOf(b), s.MinSup)
}

// probsOf collects b's probabilities into a scratch buffer valid until the
// next probsOf call; callers must not retain it.
func (s *System) probsOf(b *bitset.Bitset) []float64 {
	out := s.probsBuf[:0]
	b.ForEach(func(tid int) bool {
		out = append(out, s.Probs[tid])
		return true
	})
	s.probsBuf = out
	return out
}

// ClauseProb returns Pr(C_i) = Π_{T ⊇ X, e_i ∉ T}(1 − p_T) · Pr_F(X+e_i).
func (s *System) ClauseProb(i int) float64 {
	return s.eventProb(s.Clauses[i])
}

// PairProb returns Pr(C_i ∩ C_j), which collapses to the canonical event
// over B_i ∩ B_j.
func (s *System) PairProb(i, j int) float64 {
	if i == j {
		return s.ClauseProb(i)
	}
	if s.interBuf == nil {
		s.interBuf = bitset.New(s.Base.Len())
	}
	bitset.AndInto(s.interBuf, s.Clauses[i], s.Clauses[j])
	return s.eventProb(s.interBuf)
}

// ExactUnionLimit bounds the inclusion–exclusion fallback.
const ExactUnionLimit = 20

// ExactUnion returns Pr(C_1 ∪ … ∪ C_m) by inclusion–exclusion. Cost is
// O(2^m) clause-intersection evaluations, so it is rejected above
// ExactUnionLimit clauses.
func (s *System) ExactUnion() (float64, error) {
	m := len(s.Clauses)
	if m == 0 {
		return 0, nil
	}
	if m > ExactUnionLimit {
		return 0, fmt.Errorf("dnf: %d clauses exceed exact inclusion-exclusion limit %d", m, ExactUnionLimit)
	}
	total := 0.0
	if s.interBuf == nil {
		s.interBuf = bitset.New(s.Base.Len())
	}
	inter := s.interBuf
	for mask := 1; mask < 1<<uint(m); mask++ {
		inter.CopyFrom(s.Base)
		bits := 0
		for i := 0; i < m; i++ {
			if mask&(1<<uint(i)) != 0 {
				bitset.AndInto(inter, inter, s.Clauses[i])
				bits++
			}
		}
		p := s.eventProb(inter)
		if bits%2 == 1 {
			total += p
		} else {
			total -= p
		}
	}
	// Clamp tiny negative drift from float cancellation.
	if total < 0 {
		total = 0
	}
	if total > 1 {
		total = 1
	}
	return total, nil
}

// Sums holds the first- and second-order clause probability sums that the
// Lemma 4.4 bounds are built from.
type Sums struct {
	Clause []float64   // Pr(C_i)
	Pair   [][]float64 // Pr(C_i ∩ C_j), symmetric, diagonal = Pr(C_i)
}

// ComputeSums evaluates all single and pairwise clause probabilities:
// O(m²) canonical-event evaluations.
func (s *System) ComputeSums() Sums {
	m := len(s.Clauses)
	sums := Sums{Clause: make([]float64, m), Pair: make([][]float64, m)}
	for i := 0; i < m; i++ {
		sums.Pair[i] = make([]float64, m)
	}
	s.fillSums(&sums)
	return sums
}

// ComputeSumsReuse is ComputeSums over scratch buffers held on s: the
// returned Sums is valid until the next ComputeSums(Reuse) call on this
// system. Values are identical to ComputeSums.
func (s *System) ComputeSumsReuse() Sums {
	m := len(s.Clauses)
	if cap(s.sumsClause) < m {
		s.sumsClause = make([]float64, m)
		s.sumsPair = make([][]float64, m)
		s.sumsFlat = make([]float64, m*m)
	}
	sums := Sums{Clause: s.sumsClause[:m], Pair: s.sumsPair[:m]}
	flat := s.sumsFlat[: m*m : m*m]
	for i := 0; i < m; i++ {
		sums.Pair[i] = flat[i*m : (i+1)*m]
	}
	s.fillSums(&sums)
	return sums
}

func (s *System) fillSums(sums *Sums) {
	m := len(s.Clauses)
	for i := 0; i < m; i++ {
		sums.Clause[i] = s.ClauseProb(i)
		sums.Pair[i][i] = sums.Clause[i]
		for j := i + 1; j < m; j++ {
			p := s.PairProb(i, j)
			sums.Pair[i][j] = p
			sums.Pair[j][i] = p
		}
	}
}

// DeCaenLower returns de Caen's lower bound on Pr(∪C_i):
//
//	Σ_i  Pr(C_i)² / Σ_j Pr(C_i ∩ C_j)
//
// (the j-sum includes j = i). Clauses with zero probability contribute 0.
func DeCaenLower(sums Sums) float64 {
	total := 0.0
	for i, pi := range sums.Clause {
		if pi <= 0 {
			continue
		}
		den := 0.0
		for _, pij := range sums.Pair[i] {
			den += pij
		}
		if den > 0 {
			total += pi * pi / den
		}
	}
	if total > 1 {
		total = 1
	}
	return total
}

// KwerelUpper returns Kwerel's upper bound on Pr(∪C_i):
//
//	min{ S1 − 2·S2/m , 1 }
//
// with S1 = Σ Pr(C_i) and S2 = Σ_{i<j} Pr(C_i ∩ C_j).
func KwerelUpper(sums Sums) float64 {
	m := len(sums.Clause)
	if m == 0 {
		return 0
	}
	s1, s2 := 0.0, 0.0
	for i, pi := range sums.Clause {
		s1 += pi
		for j := i + 1; j < m; j++ {
			s2 += sums.Pair[i][j]
		}
	}
	ub := s1 - 2*s2/float64(m)
	if ub > 1 {
		ub = 1
	}
	if ub < 0 {
		ub = 0
	}
	return ub
}

// UnionBounds returns the best available analytic sandwich
// lower ≤ Pr(∪C_i) ≤ upper, combining de Caen/Kwerel with the trivial
// max-clause and Boole bounds.
func UnionBounds(sums Sums) (lower, upper float64) {
	lower = DeCaenLower(sums)
	maxClause, s1 := 0.0, 0.0
	for _, p := range sums.Clause {
		s1 += p
		if p > maxClause {
			maxClause = p
		}
	}
	if maxClause > lower {
		lower = maxClause
	}
	upper = KwerelUpper(sums)
	if s1 < upper {
		upper = s1
	}
	if upper > 1 {
		upper = 1
	}
	if upper < lower {
		// Numerical drift; collapse to a consistent point.
		mid := (upper + lower) / 2
		lower, upper = mid, mid
	}
	return lower, upper
}

// SampleSize returns the Karp–Luby sample count N = ⌈4·m·ln(2/δ)/ε²⌉
// guaranteeing Pr(|est − Pr(∪C)| ≥ ε) ≤ δ, the FPRAS size quoted in the
// paper's complexity analysis of ApproxFCP.
func SampleSize(m int, eps, delta float64) int {
	if m == 0 {
		return 0
	}
	n := math.Ceil(4 * float64(m) * math.Log(2/delta) / (eps * eps))
	if n < 1 {
		n = 1
	}
	return int(n)
}
