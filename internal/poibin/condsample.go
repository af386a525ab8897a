package poibin

import (
	"fmt"
	"math"
	"math/bits"
)

// CondSampler draws Bernoulli vectors x ∈ {0,1}ⁿ with x_i ~ Bernoulli(p_i)
// independently, conditioned on Σ x_i ≥ k. ApproxFCP uses it to sample
// possible worlds that satisfy a clause C_i (whose support part requires
// sup(X+e_i) ≥ min_sup).
//
// Construction costs O(n·k) time for the conditional success table
//
//	pone[i][r] = Pr[ x_i = 1 | x_i + … + x_{n-1} ≥ r ]
//	           = p_i · tail[i+1][r−1] / tail[i][r],
//	tail[i][r] = Pr[ x_i + … + x_{n-1} ≥ r ],
//
// built backwards over two rolling tail rows, after which a draw walks
// i = 0…n−1 with one table load and one uniform draw per step. A sampler
// is reusable: Reset rebuilds it in place over its own buffers, so one
// sampler serves every clause of every node.
type CondSampler struct {
	probs []float64
	k, n  int
	prob  float64
	// pone holds the table transposed (entry [i][r] at r·n+i, the access
	// order of the walk; row 0 is never read but keeps every success
	// candidate idx+1−n of a live cell in bounds, and one trailing padding
	// element does the same for the fail candidate idx+1 of the last cell).
	// An entry is NaN when tail[i][r] underflowed to 0, marking the
	// numerically impossible branch where only the forced-success path
	// remains and no draw is consumed.
	pone []float64
	// forced reports that the walk can reach a NaN cell, which makes the
	// number of draws per sample path-dependent.
	forced     bool
	rowA, rowB []float64
}

// NewCondSampler builds a sampler for the constraint Σ x_i ≥ k. It returns
// an error if the constraint is unsatisfiable (k > n) or has probability
// zero.
func NewCondSampler(probs []float64, k int) (*CondSampler, error) {
	cs := &CondSampler{}
	if err := cs.Reset(probs, k); err != nil {
		return nil, err
	}
	return cs, nil
}

// Reset rebuilds cs for a new constraint, reusing its buffers; the errors
// are NewCondSampler's. cs copies probs.
func (cs *CondSampler) Reset(probs []float64, k int) error {
	n := len(probs)
	if k < 0 {
		k = 0
	}
	if k > n {
		return fmt.Errorf("poibin: constraint sum ≥ %d unsatisfiable with %d variables", k, n)
	}
	cs.probs = append(cs.probs[:0], probs...)
	cs.k, cs.n, cs.forced = k, n, false
	cs.pone = grow(cs.pone, n*(k+1)+1)
	cs.rowA, cs.rowB = grow(cs.rowA, k+1), grow(cs.rowB, k+1)
	// next is tail[i+1], row is tail[i]; start from tail[n]: ≥ 0 is
	// certain, ≥ r>0 impossible.
	next, row := cs.rowA, cs.rowB
	next[0] = 1
	for r := 1; r <= k; r++ {
		next[r] = 0
	}
	pone := cs.pone
	for i := n - 1; i >= 0; i-- {
		p := probs[i]
		row[0] = 1
		for r := 1; r <= k; r++ {
			succ := next[r-1]
			row[r] = float64(p*succ) + float64((1-p)*next[r])
			if denom := row[r]; denom > 0 {
				pone[r*n+i] = p * next[r-1] / denom
			} else {
				pone[r*n+i] = math.NaN()
				// The walk reaches column i only at r ≥ k−i, and a cell
				// with r > n−i (fewer tuples left than successes owed)
				// only by failing, one step earlier, a cell that owes
				// exactly as many successes as it has tuples left. That
				// cell's pone is p·t/(p·t + 0) = 1 exactly, and a draw in
				// [0, 1) never fails it. So only NaN cells in
				// k−i ≤ r ≤ n−i can be reached; every one of them counts.
				if r >= k-i && r <= n-i {
					cs.forced = true
				}
			}
		}
		next, row = row, next
	}
	cs.prob = next[k]
	if cs.prob <= 0 {
		return fmt.Errorf("poibin: constraint sum ≥ %d has probability 0", k)
	}
	return nil
}

// grow returns b resized to n, reallocating with doubling headroom so a
// sampler Reset across growing tables reallocates O(log) times.
func grow(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n, max(n, 2*cap(b)))
	}
	return b[:n]
}

// Prob returns Pr[Σ x_i ≥ k] for the unconditioned vector — the
// normalizing constant of the sampler.
func (cs *CondSampler) Prob() float64 { return cs.prob }

// Covers draws one conditioned world x and reports whether the masks of
// its present positions together cover want: masks holds w = len(want)
// words per position, position i's at masks[i·w : (i+1)·w], and acc (w
// words) is caller scratch. The draw stops as soon as the verdict is in,
// but rng always ends exactly where walking all n positions would leave
// it: the draws the world did not need are skipped by counter (each
// remaining step consumes one draw), or, when a forced cell is reachable
// and the count is path-dependent, walked without bookkeeping. An empty
// want is covered before the first draw.
func (cs *CondSampler) Covers(rng *SM64, masks, want, acc []uint64) bool {
	i, r, hit := 0, cs.k, true
	switch {
	case len(want) == 1 && want[0] != 0:
		i, r, hit = cs.walk1(rng, masks, want[0])
	case len(want) > 1:
		i, r, hit = cs.walkN(rng, masks, want, acc)
	}
	if hit {
		cs.finish(rng, i, r)
	}
	return hit
}

// walk1 is the walk of Covers for one mask word per position. It returns
// where the walk stopped — the next position i and the successes r still
// owed — and whether the masks were covered; on a miss it has walked all n
// positions.
//
// A success is as likely as the tuple's own probability, so the walk is
// branchless on it. Non-negative doubles order like their bit patterns, so
// the draw is compared with the cell as uint64s and the outcome is a 0/1
// flag s; the mask word is ANDed with −s, and the cursor into the
// transposed table moves by +1 on a failure and by +1−n on a success (one
// row up). Both candidate cells for the next step are loaded before the
// draw resolves and selected by s, so the table latency overlaps the
// compare instead of serializing behind it. The forced cell, the end of
// the conditioned phase and the verdict are the only branches, and all
// three are predictable. The generator lives in a local for the walk so
// its state stays in a register.
func (cs *CondSampler) walk1(rng *SM64, masks []uint64, want uint64) (int, int, bool) {
	st := rng.state
	n := cs.n
	masks = masks[:n]
	pone := cs.pone
	var acc uint64
	// rn = r·n for the r successes still owed: the walk's cell is
	// pone[rn+i], and a success moves it one row up.
	i, rn := 0, cs.k*n
	cur := math.Float64bits(pone[rn])
	for ; rn > 0; i++ {
		fail := math.Float64bits(pone[rn+i+1])
		succ := math.Float64bits(pone[rn+i+1-n])
		s := uint64(1)
		if cur < nanBits {
			var u uint64
			st, u = nextFloatBits(st)
			// Both bit patterns are below 2⁶³, so u − cur wraps to a
			// set top bit exactly when u < cur.
			s = (u - cur) >> 63
		} // else a NaN cell: forced success, no draw.
		sm := -s
		rn -= n & int(sm)
		cur = fail ^ (fail^succ)&sm
		acc |= masks[i] & sm
		if acc == want {
			rng.state = st
			return i + 1, rn / n, true
		}
	}
	// Constraint met; the rest is unconditioned.
	probs := cs.probs[:n]
	for ; i < n; i++ {
		var u uint64
		st, u = nextFloatBits(st)
		sm := -((u - math.Float64bits(probs[i])) >> 63)
		acc |= masks[i] & sm
		if acc == want {
			rng.state = st
			return i + 1, 0, true
		}
	}
	rng.state = st
	return n, 0, false
}

// walkN is walk1 for w = len(want) > 1 mask words per position, with acc
// as scratch for the running union.
func (cs *CondSampler) walkN(rng *SM64, masks, want, acc []uint64) (int, int, bool) {
	w, need := len(want), 0
	for j, b := range want {
		need += bits.OnesCount64(b)
		acc[j] = 0
	}
	// cover ORs position i's mask words, gated by sm, into acc and
	// reports whether all of want is now covered.
	cover := func(i int, sm uint64) bool {
		for j, m := range masks[i*w : i*w+w] {
			fresh := m & sm &^ acc[j]
			acc[j] |= fresh
			need -= bits.OnesCount64(fresh)
		}
		return need == 0
	}
	if need == 0 {
		return 0, cs.k, true
	}
	st := rng.state
	n := cs.n
	pone := cs.pone
	i, rn := 0, cs.k*n
	cur := math.Float64bits(pone[rn])
	for ; rn > 0; i++ {
		fail := math.Float64bits(pone[rn+i+1])
		succ := math.Float64bits(pone[rn+i+1-n])
		s := uint64(1)
		if cur < nanBits {
			var u uint64
			st, u = nextFloatBits(st)
			s = (u - cur) >> 63
		}
		sm := -s
		rn -= n & int(sm)
		cur = fail ^ (fail^succ)&sm
		if cover(i, sm) {
			rng.state = st
			return i + 1, rn / n, true
		}
	}
	probs := cs.probs[:n]
	for ; i < n; i++ {
		var u uint64
		st, u = nextFloatBits(st)
		if cover(i, -((u - math.Float64bits(probs[i])) >> 63)) {
			rng.state = st
			return i + 1, 0, true
		}
	}
	rng.state = st
	return n, 0, false
}

// nanBits is the smallest NaN bit pattern with the sign bit clear.
const nanBits = 0x7FF0000000000001

// nextFloatBits is SM64.Float64 over a bare state — same draws, same
// retries — returning the advanced state and the draw's bit pattern;
// keeping the state in a local lets the walks hold it in a register.
func nextFloatBits(st uint64) (uint64, uint64) {
	z := uint64(retryMin)
	for z >= retryMin {
		st += golden
		z = finalize(st)
	}
	return st, math.Float64bits(float64(int64(z>>1)) / (1 << 63))
}

// Skip advances rng past samples whole draws without materializing them:
// exactly the stream Covers would consume on samples that need the full
// walk.
func (cs *CondSampler) Skip(rng *SM64, samples int) {
	if !cs.forced {
		rng.SkipFloat64(samples * cs.n)
		return
	}
	for ; samples > 0; samples-- {
		cs.finish(rng, 0, cs.k)
	}
}

// finish consumes the rest of a walk that stands at position i owing r
// successes.
func (cs *CondSampler) finish(rng *SM64, i, r int) {
	if cs.forced {
		// Once r reaches 0 every remaining step draws once.
		for ; i < cs.n && r > 0; i++ {
			if p := cs.pone[r*cs.n+i]; p != p || rng.Float64() < p {
				r--
			}
		}
	}
	rng.SkipFloat64(cs.n - i)
}
