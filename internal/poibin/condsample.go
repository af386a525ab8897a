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
// The sampler rests on the suffix tails
//
//	tail[i][r] = Pr[ x_i + … + x_{n-1} ≥ r ]
//	           = p_i · tail[i+1][r−1] + (1−p_i) · tail[i+1][r],
//
// computed backwards over two rolling rows in O(n·k), and on the
// conditional success table
//
//	pone[i][r] = Pr[ x_i = 1 | x_i + … + x_{n-1} ≥ r ] = p_i · tail[i+1][r−1] / tail[i][r],
//
// after which a draw walks i = 0, 1, … with one table load and one uniform
// draw per step. A caller that only looks at the first L positions of each
// world (dnf puts a clause's escape positions first) asks Reset for L
// table columns: the columns from L on run the tail recurrence only, with
// no division and no cell store, and the walks stop after position L−1,
// skipping the world's remaining n−L draws by counter. A sampler is
// reusable: Reset rebuilds it in place over its own buffers, so one
// sampler serves every clause of every node.
//
// The table is built only in the band a walk can reach (DESIGN §13): a walk
// that owes r successes at position i has r ≥ k−i, because it started at k
// and pays at most one success per step, and r ≤ n−i, because a cell owing
// exactly as many successes as it has tuples left is 1 and no draw in
// [0, 1) fails it.
type CondSampler struct {
	k, n int
	cols int // table columns: positions a walk may visit
	prob float64
	// tab holds the table column by column: cell (i, r) at i·(k+1)+r, so
	// the walk's two candidates for the next step are neighbours. Row 0
	// holds p_i itself — once the constraint is met a success is as likely
	// as the tuple — so the vector walker runs the conditioned and the
	// unconditioned phase as one recurrence. Of rows r ≥ 1 only the band
	// max(1, k−i) ≤ r ≤ min(k, n−i) is written; a trailing padding column
	// keeps the scalar walk's loads of the next column in bounds. A cell is
	// NaN where tail[i][r] underflowed to 0; no walk reaches one (DESIGN
	// §13), so every world draws exactly n times.
	tab        []float64
	rowA, rowB []float64
}

// lanes is how many worlds the vector walker draws at once.
const lanes = 8

// NewCondSampler builds a sampler for the constraint Σ x_i ≥ k with a table
// over all n positions. It returns an error if the constraint is
// unsatisfiable (k > n) or has probability zero.
func NewCondSampler(probs []float64, k int) (*CondSampler, error) {
	cs := &CondSampler{}
	if err := cs.Reset(probs, k, len(probs)); err != nil {
		return nil, err
	}
	return cs, nil
}

// Reset rebuilds cs for a new constraint, reusing its buffers, with table
// columns for the first cols positions (clamped to [0, n]): walks after it
// may visit those positions only. The errors are NewCondSampler's. cs
// copies what it keeps of probs.
func (cs *CondSampler) Reset(probs []float64, k, cols int) error {
	n := len(probs)
	k, err := checkConstraint(n, k)
	if err != nil {
		return err
	}
	cols = min(max(cols, 0), n)
	cs.k, cs.n, cs.cols = k, n, cols
	stride := k + 1
	cs.tab = grow(cs.tab, (cols+1)*stride)
	tab := cs.tab
	for i, p := range probs[:cols] {
		tab[i*stride] = p
	}
	// next is tail[i+1], row is tail[i]; both start as tail[n]: ≥ 0 is
	// certain, ≥ r>0 impossible. Column i reads column i+1's band one row
	// below its own and, where its band reaches r = n−i, one row above:
	// tail[i+1][n−i] owes more successes than tuples remain, and neither
	// buffer ever had that entry written, so it reads the exact 0 it is.
	cs.rowA, cs.rowB = grow(cs.rowA, stride), grow(cs.rowB, stride)
	next, row := cs.rowA, cs.rowB
	clear(next)
	clear(row)
	next[0], row[0] = 1, 1
	i := n - 1
	// Past the tabled columns only the tails are needed: one in-place pass
	// per position, downwards so each cell still reads the previous
	// round's, with the same products and sum as bandCells' tails.
	for ; i >= cols; i-- {
		sweepDown(next, max(1, k-i), min(k, n-i), 1-probs[i], probs[i])
	}
	for ; i >= 0; i-- {
		lo, hi := max(1, k-i), min(k, n-i)
		col := tab[i*stride : (i+1)*stride]
		bandCells(col[lo:hi+1], row[lo:hi+1], next[lo-1:hi+1], probs[i])
		next, row = row, next
	}
	cs.prob = next[k]
	if cs.prob <= 0 {
		return fmt.Errorf("poibin: constraint sum ≥ %d has probability 0", k)
	}
	return nil
}

// ResetSkip prepares cs to Skip worlds of the constraint Σ x_i ≥ k and
// returns Reset's errors. Skip needs no table, only n; the tails are run
// only to decide whether Pr[Σ x_i ≥ k] is 0. Every in-band tail is at
// least the product of the last k probabilities (the world where those
// tuples are present), so when that product is ≥ 2⁻⁹⁰⁰ no tail can round
// to 0 and Prob() > 0 is proved without them. Until the next Reset, Covers
// and CountCovers must not be called and Prob is meaningless.
func (cs *CondSampler) ResetSkip(probs []float64, k int) error {
	n := len(probs)
	k, err := checkConstraint(n, k)
	if err != nil {
		return err
	}
	prod := 1.0
	for _, p := range probs[n-k:] {
		if prod *= p; prod < 0x1p-900 {
			return cs.Reset(probs, k, 0)
		}
	}
	cs.k, cs.n, cs.cols = k, n, 0
	return nil
}

// checkConstraint clamps k at 0 and rejects k > n.
func checkConstraint(n, k int) (int, error) {
	k = max(k, 0)
	if k > n {
		return k, fmt.Errorf("poibin: constraint sum ≥ %d unsatisfiable with %d variables", k, n)
	}
	return k, nil
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

// CountCovers draws samples conditioned worlds one after another, exactly
// as that many Covers calls would, and returns how many of them cover
// want; rng ends where those calls leave it. Each world consumes exactly
// n draws unless a Float64 retry falls inside it, so eight consecutive
// worlds whose draws hold no retry are independent: world j starts j·n
// draws on. With one mask word per position the vector walker runs those
// eight in lockstep; everything else — wider masks, groups with a retry
// and the last fewer than eight — walks one world at a time.
func (cs *CondSampler) CountCovers(rng *SM64, masks, want, acc []uint64, samples int) int {
	hits := 0
	vector := useAVX2 && len(want) == 1 && want[0] != 0
	if vector {
		cs.checkWalk(masks, 1)
	}
	for samples > 0 {
		if vector && samples >= lanes && rng.retryGap() >= uint64(lanes*cs.n) {
			hits += cs.walkLanes(rng, masks, want[0])
			samples -= lanes
			continue
		}
		if cs.Covers(rng, masks, want, acc) {
			hits++
		}
		samples--
	}
	return hits
}

// Covers draws one conditioned world x and reports whether the masks of
// its present positions together cover want: masks holds w = len(want)
// words for each of the first L = len(masks)/w positions, position i's at
// masks[i·w : (i+1)·w], none with a bit outside want, and acc (w words) is
// caller scratch. The positions from L on carry no mask, so the walk visits
// only the first L, which the last Reset must have tabled. The draw stops
// as soon as the verdict is in, but rng always ends exactly where walking
// all n positions would leave it: every step draws once, so the draws the
// world did not need are skipped by counter. An empty want is covered
// before the first draw.
func (cs *CondSampler) Covers(rng *SM64, masks, want, acc []uint64) bool {
	i, hit := 0, true
	switch {
	case len(want) == 1 && want[0] != 0:
		cs.checkWalk(masks, 1)
		i, hit = cs.walk1(rng, masks, want[0])
	case len(want) > 1:
		cs.checkWalk(masks, len(want))
		i, hit = cs.walkN(rng, masks, want, acc)
	}
	rng.SkipFloat64(cs.n - i)
	return hit
}

// checkWalk panics unless masks, w words per position, stays within the
// tabled columns.
func (cs *CondSampler) checkWalk(masks []uint64, w int) {
	if len(masks) > cs.cols*w {
		panic(fmt.Sprintf("poibin: walk over %d positions of a table with %d columns", len(masks)/w, cs.cols))
	}
}

// walk1 is the walk of Covers for one mask word per position. It returns
// the next position i where the walk stopped and whether the masks were
// covered; on a miss it has walked all L = len(masks) positions.
//
// A success is as likely as the cell, so the walk is branchless on it.
// Non-negative doubles order like their bit patterns, so the draw is
// compared with the cell as uint64s and the outcome is a 0/1 flag s; the
// mask word is ANDed with −s, and while successes are owed a success moves
// the cursor into the next column one row down. Both candidate cells for
// the next step are neighbours, loaded before the draw resolves and
// selected by s, so the table latency overlaps the compare instead of
// serializing behind it. Once the constraint is met the walk reads row 0,
// p_i, with no dependence between steps. The ends of the conditioned phase
// and of the walked positions and the verdict are the only branches, and
// all are predictable. The
// generator lives in a local for the walk so its state stays in a
// register.
func (cs *CondSampler) walk1(rng *SM64, masks []uint64, want uint64) (int, bool) {
	st := rng.state
	L, stride := len(masks), cs.k+1
	tab := cs.tab
	var acc uint64
	i, r := 0, cs.k
	idx := r // i·stride + r
	cur := math.Float64bits(tab[idx])
	for ; r > 0 && i < L; i++ {
		next := idx + stride
		fail := math.Float64bits(tab[next])
		succ := math.Float64bits(tab[next-1])
		var u uint64
		st, u = nextFloatBits(st)
		// Both bit patterns are below 2⁶³, so u − cur wraps to a set top
		// bit exactly when u < cur.
		s := (u - cur) >> 63
		sm := -s
		r -= int(s)
		idx = next - int(s)
		cur = fail ^ (fail^succ)&sm
		acc |= masks[i] & sm
		if acc == want {
			rng.state = st
			return i + 1, true
		}
	}
	// Constraint met; the rest is unconditioned.
	for ; i < L; i++ {
		var u uint64
		st, u = nextFloatBits(st)
		sm := -((u - math.Float64bits(tab[i*stride])) >> 63)
		acc |= masks[i] & sm
		if acc == want {
			rng.state = st
			return i + 1, true
		}
	}
	rng.state = st
	return L, false
}

// walkN is walk1 for w = len(want) > 1 mask words per position, with acc
// as scratch for the running union.
func (cs *CondSampler) walkN(rng *SM64, masks, want, acc []uint64) (int, bool) {
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
		return 0, true
	}
	st := rng.state
	L, stride := len(masks)/w, cs.k+1
	tab := cs.tab
	i, r := 0, cs.k
	idx := r
	cur := math.Float64bits(tab[idx])
	for ; r > 0 && i < L; i++ {
		next := idx + stride
		fail := math.Float64bits(tab[next])
		succ := math.Float64bits(tab[next-1])
		var u uint64
		st, u = nextFloatBits(st)
		s := (u - cur) >> 63
		sm := -s
		r -= int(s)
		idx = next - int(s)
		cur = fail ^ (fail^succ)&sm
		if cover(i, sm) {
			rng.state = st
			return i + 1, true
		}
	}
	for ; i < L; i++ {
		var u uint64
		st, u = nextFloatBits(st)
		if cover(i, -((u - math.Float64bits(tab[i*stride])) >> 63)) {
			rng.state = st
			return i + 1, true
		}
	}
	rng.state = st
	return L, false
}

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

// Skip advances rng past samples whole worlds without materializing them:
// exactly the stream Covers would consume on samples that need the full
// walk.
func (cs *CondSampler) Skip(rng *SM64, samples int) {
	rng.SkipFloat64(samples * cs.n)
}
