package poibin

// Tail-kernel architecture (DESIGN §13). Two kernels compute the exact
// Poisson-binomial tail Pr[S ≥ k]:
//
//   - The sequential DP (tailDP): the absorbing-truncated dynamic program of
//     [22], O(n·min(k, n+1)) time. Tuples with p = 1 take a bitwise-exact
//     shift fast path: dist[c]·0 + dist[c−1]·1 rounds to dist[c−1] exactly
//     (all entries are non-negative finite floats), and the absorbing add
//     dist[k] += dist[k−1]·1 performs the identical rounded addition, so the
//     memmove produces bit-identical output to the generic loop. On amd64
//     with AVX2, Scratch.Tail runs every round of it — shifts, absorbs,
//     bands — in one assembly routine (dpTail → tailDPAVX2), which pairs
//     consecutive band rounds and applies both in one blocked pass down the
//     band (sweep.go). Each cell keeps its rounded operations and their
//     order, so the bits are the same; tailDP with the portable sweep is
//     the reference and every other platform's path. The convolution-tree
//     leaves (leafPMF) run the same pass, two tuples at a time.
//
//   - The divide-and-conquer convolution tree (tailConv): certain tuples
//     (p = 1) shift the threshold down, impossible tuples (p = 0) drop out,
//     and the remaining vector splits into convLeafN-sized blocks whose
//     truncated PMFs merge pairwise by absorbing-truncated convolution — the
//     generating-function composition ProFP-Growth exploits. Below the top
//     cell the merge is a pure multiply-add stream (vectorizable,
//     parallelizable across subtrees), unlike the strictly sequential DP;
//     the absorbing top cell is one product per row with a suffix sum of
//     the other operand (convMerge), O(k) rather than O(k²) dependent adds.
//     Subtrees of at least convParallelN tuples evaluate concurrently; the
//     tree shape depends only on the input length, so results are
//     deterministic regardless of how many goroutines actually run.
//
// The two kernels accumulate the same mass in different orders, so their
// outputs may differ in the last ulps once the tree has more than one
// leaf. Tail therefore dispatches by a fixed, input-deterministic crossover
// (ConvCrossoverN): every caller — miner, memo, sweep replay, daemon —
// resolves the same probability vector with the same kernel, preserving the
// system-wide byte-identity guarantees of DESIGN §8.3. Forcing a kernel via
// TailKernel is a result-affecting choice above the crossover, so
// production code always takes the KernelAuto dispatch; the forced kernels
// exist for equivalence tests and kernel benchmarks. The merge's summation
// order is part of every sharded or tree-evaluated result, so changing it
// changes the daemon's cache key (the conv=2 token, DESIGN §9.3).

import (
	"sync"
)

// Kernel selects the tail evaluation strategy.
type Kernel int

const (
	// KernelAuto dispatches by the fixed crossover: the sequential DP below
	// ConvCrossoverN tuples, the convolution tree at or above it.
	KernelAuto Kernel = iota
	// KernelDP forces the sequential dynamic program at every size.
	KernelDP
	// KernelConv forces the divide-and-conquer convolution tree. Inputs of
	// at most convLeafN tuples are a single leaf, which is the DP itself, so
	// forcing KernelConv on small inputs is bit-identical to KernelDP.
	KernelConv
)

const (
	// ConvCrossoverN is the KernelAuto crossover: probability vectors with
	// at least this many tuples use the convolution tree. Every dataset of
	// the paper's evaluation (Mushroom ≈ 8k·scale, Quest ≈ 30k·scale at the
	// benchmarked scales) stays below it; the 10⁶-transaction Quest workload
	// is what it exists for.
	ConvCrossoverN = 4096

	// convLeafN is the block size at which the convolution tree bottoms out
	// into a sequential DP leaf.
	convLeafN = 512

	// convParallelN is the subtree size at or above which the left half is
	// evaluated on its own goroutine.
	convParallelN = 1 << 16
)

// Scratch holds reusable buffers for tail evaluation, eliminating the
// per-call O(k) allocation of the DP distribution vector. The zero value is
// ready to use. A Scratch is not safe for concurrent use; each miner worker
// owns one.
type Scratch struct {
	dist []float64
	bufs [][]float64 // convolution-tree vector freelist
	suf  []float64   // convMerge's suffix sums
}

// Tail is Tail with scratch reuse: Pr[S ≥ k] via the canonical
// (KernelAuto) dispatch.
func (s *Scratch) Tail(probs []float64, k int) float64 {
	return s.TailKernel(probs, k, KernelAuto)
}

// TailKernel computes Pr[S ≥ k] with the given kernel. KernelAuto is the
// canonical choice; forcing KernelDP or KernelConv exists for equivalence
// testing and benchmarking.
func (s *Scratch) TailKernel(probs []float64, k int, kern Kernel) float64 {
	n := len(probs)
	switch {
	case k <= 0:
		return 1
	case k > n:
		return 0
	}
	if kern == KernelAuto {
		if n >= ConvCrossoverN {
			kern = KernelConv
		} else {
			kern = KernelDP
		}
	}
	if kern == KernelConv && n > convLeafN {
		return s.tailConv(probs, k)
	}
	return dpTail(s.dpBuf(k+1), probs, k)
}

// dpGuard is the number of zero cells dpBuf keeps below cell 0. The AVX2
// routines read a band's lower neighbours from them and widen bands down
// into them, so cell 0 needs no case of its own (sweep_amd64.s).
const dpGuard = 8

// dpBuf returns the DP vector of the given number of cells behind dpGuard
// guard cells, zeroed but for cell 0 = 1.
func (s *Scratch) dpBuf(cells int) []float64 {
	n := dpGuard + cells
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
	}
	buf := s.dist[:n]
	clear(buf)
	buf[dpGuard] = 1
	return buf
}

// tailDP runs the absorbing-truncated DP in dist (len k+1, contents
// overwritten). Two bitwise-exact reductions keep the band of live cells
// short, and the band itself is one shared sweep; logical cell c lives at
// dist[c-off] and the absorbing ≥ k bucket is the scalar acc.
//
//   - Certain tuples (p = 1) shift the distribution by one. The generic
//     recurrence dist[c]·0 + dist[c−1]·1 is an exact move in IEEE
//     arithmetic, so the shift is tracked as the window offset off instead
//     of an O(k) copy. Once off reaches k all mass is absorbed and every
//     later round adds an exact +0, so the scan stops.
//   - Cells below k − remaining can never climb back to k (an item adds at
//     most one success), and their updates feed only other dead cells, so
//     the loop floor rises as the scan nears the end. Skipped cells are
//     never read again: round i reads one cell below its write floor,
//     which is exactly round i−1's floor.
//   - The band is one sweepDown (sweep.go), which updates four or eight
//     cells per instruction on CPUs that can; its vector body rounds each
//     cell exactly as the scalar recurrence does.
//
// None of the three changes the sequence of rounded multiply-adds that
// reaches the absorbing bucket, so the result is bit-identical to the
// naive recurrence (TestTailDPMatchesReference, FuzzTailKernels and the
// crosscheck suites pin this).
func tailDP(dist []float64, probs []float64, k int) float64 {
	for i := range dist {
		dist[i] = 0
	}
	dist[0] = 1 // logical cell off
	acc := 0.0  // absorbing ≥ k bucket (the old dist[k])
	n := len(probs)
	off := 0 // certain-tuple shift: logical cells below off are exactly zero
	hi := 0  // highest logical index that can be non-zero
	for idx, p := range probs {
		if hi < k {
			hi++
		}
		if p == 1 {
			if hi == k {
				acc += dist[k-1-off]
			}
			off++
			if off >= k {
				break
			}
			continue
		}
		q := 1 - p
		if hi == k {
			acc += float64(dist[k-1-off] * p) // absorb into ≥ k
		}
		top := hi
		if top > k-1 {
			top = k - 1
		}
		// Floor of the cells that can still reach k after this round.
		lo := k - n + idx + 1
		cLo := lo
		if cLo <= off {
			cLo = off + 1
		}
		sweepDown(dist, cLo-off, top-off, q, p)
		if lo <= off {
			dist[0] *= q
		}
	}
	return clampProb(acc)
}

// clampProb caps the DP's absorbing bucket at 1: a sum of rounded products
// can land an ulp above 1 (certain tuples make this routine), and a
// probability never may.
func clampProb(acc float64) float64 {
	if acc > 1 {
		return 1
	}
	return acc
}

// tailConv evaluates the tail with the convolution tree: extract the
// degenerate tuples, then convolve the rest blockwise.
func (s *Scratch) tailConv(probs []float64, k int) float64 {
	rest := s.getBuf(len(probs))[:0]
	certain := 0
	for _, p := range probs {
		switch p {
		case 1:
			certain++ // one guaranteed success: lowers the threshold
		case 0:
			// contributes nothing to the sum
		default:
			rest = append(rest, p)
		}
	}
	k -= certain
	var out float64
	switch {
	case k <= 0:
		out = 1
	case k > len(rest):
		out = 0
	default:
		v := s.convTree(rest, k, true)
		out = v[k] // len(v) == min(len(rest), k)+1 == k+1 here
		s.putBuf(v)
	}
	s.putBuf(rest)
	if out > 1 {
		return 1
	}
	if out < 0 {
		return 0
	}
	return out
}

// convTree returns the PMF of Σ Bernoulli(probs) truncated at k (index k
// absorbs ≥ k when reachable); the returned vector has length
// min(len(probs), k)+1 and comes from the scratch freelist — callers
// release it with putBuf. Probabilities must lie strictly in (0, 1).
// The recursion shape depends only on len(probs) and k, so the result is
// deterministic whether or not subtrees run concurrently.
func (s *Scratch) convTree(probs []float64, k int, root bool) []float64 {
	n := len(probs)
	if n <= convLeafN {
		L := n
		if L > k {
			L = k
		}
		v := s.getBuf(L + 1)[:L+1]
		s.leafPMF(v, probs, k)
		return v
	}
	mid := n / 2
	if root && n >= convParallelN {
		// Kept out of line: the goroutine closure would force the halves'
		// slice headers to the heap on the (far more common) sequential
		// path too.
		return s.convTreePar(probs, mid, k)
	}
	left := s.convTree(probs[:mid], k, root)
	right := s.convTree(probs[mid:], k, root)
	return s.mergeTrees(left, right, k)
}

// convTreePar evaluates the left half on its own goroutine.
func (s *Scratch) convTreePar(probs []float64, mid, k int) []float64 {
	var left []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ls Scratch // goroutine-local scratch; its buffers are discarded
		left = ls.convTree(probs[:mid], k, true)
	}()
	right := s.convTree(probs[mid:], k, true)
	wg.Wait()
	return s.mergeTrees(left, right, k)
}

// mergeTrees convolves two subtree PMFs into a fresh scratch vector and
// releases the inputs.
func (s *Scratch) mergeTrees(left, right []float64, k int) []float64 {
	lo := len(left) + len(right) - 2
	if lo > k {
		lo = k
	}
	out := s.getBuf(lo + 1)[:lo+1]
	convMerge(out, left, right, s.sufBuf(len(right)), 0)
	s.putBuf(left)
	s.putBuf(right)
	return out
}

// convMerge convolves the truncated PMFs a and b into out (length
// min(La+Lb, k)+1, overwritten), lumping mass at or above index top =
// len(out)−1 into out[top]; suf is scratch of at least len(b) cells. Its
// summation order is part of the kernel's definition — it makes the result
// deterministic across runs.
//
//   - Each cell below top takes one product per row, i ascending: an axpy
//     of row a_i·b over the cells below top, whose cells are independent.
//     Cells below floor stay zero: rows that reach no cell at or above it
//     are skipped, and the others start their axpy at floor. Skipping zero
//     terms is exact: adding a·0 to a non-negative partial sum reproduces
//     it bit-for-bit.
//   - The absorbing cell is Σ_i a_i·suf_b(top−i) in i order, where
//     suf_b(j) = Σ_{j' ≥ j} b_j' is summed from the high end. That is
//     O(La + Lb) dependent adds instead of one add per absorbed product
//     (O(k²/2) at the top of a tree), and it rounds no worse: each row's
//     absorbed mass is one product of a well-conditioned suffix sum.
//     When nothing is truncated the cell is the single product
//     a_{La−1}·b_{Lb−1}, as in the textbook convolution.
func convMerge(out, a, b, suf []float64, floor int) {
	for i := range out {
		out[i] = 0
	}
	top := len(out) - 1
	for i, ai := range a[:min(len(a), top)] {
		if ai == 0 || i+len(b)-1 < floor {
			continue
		}
		n := min(len(b), top-i) // row cells strictly below top
		if s := max(floor-i, 0); s < n {
			axpy(out[i+s:i+n], b[s:], ai)
		}
	}
	// Rows from i0 on reach top; they read suf_b from jlo up. A top below
	// floor stays zero like every other such cell.
	i0 := max(top-(len(b)-1), 0)
	if i0 >= len(a) || top < floor {
		return
	}
	jlo := max(top-(len(a)-1), 0)
	suf = suf[:len(b)]
	t := 0.0
	for j := len(b) - 1; j >= jlo; j-- {
		t += b[j]
		suf[j] = t
	}
	acc := 0.0
	for i := i0; i < len(a); i++ { // i ≤ top: a is truncated at k ≥ top
		acc += float64(a[i] * suf[top-i])
	}
	// Absorbed bins accumulate rounded products and may drift an ulp above
	// 1; clamp so downstream monotonicity invariants hold.
	out[top] = min(acc, 1)
}

// sufBuf returns convMerge's suffix-sum scratch, room for n cells.
func (s *Scratch) sufBuf(n int) []float64 {
	if cap(s.suf) < n {
		s.suf = make([]float64, n)
	}
	return s.suf[:n]
}

// leafPMFGeneric fills v (length min(len(probs), k)+1) with the truncated
// PMF of one block via the sequential DP, one foldTuple per tuple. The top
// bin absorbs only when the block reaches k; shorter blocks carry their
// exact full PMF. It is the portable leafPMF and the reference for the
// AVX2 one.
func leafPMFGeneric(v []float64, probs []float64, k int) {
	L := len(v) - 1
	for i := range v {
		v[i] = 0
	}
	v[0] = 1
	hi := 0
	absorb := L == k
	for _, p := range probs {
		if hi < L {
			hi++
		}
		foldTuple(v, hi, p, absorb && hi == L)
	}
}

// foldTuple folds one Bernoulli(p) tuple into the PMF cells v[:hi+1]. When
// absorb is set, v[hi] is the ≥ k bucket: it keeps its mass and gains the
// inflow from exactly hi−1 successes. leafPMFGeneric and UpdatePMF both step
// through here, which is what makes an incrementally grown PMF bit-identical
// to a from-scratch PMFTrunc.
func foldTuple(v []float64, hi int, p float64, absorb bool) {
	q := 1 - p
	top := hi
	if absorb {
		v[hi] += float64(v[hi-1] * p)
		top = hi - 1
	}
	sweepDown(v, 1, top, q, p)
	v[0] *= q
}

// getBuf returns a float vector with capacity ≥ size from the freelist,
// preferring the tightest fit so large buffers stay available for large
// requests (first-fit would churn: a small request could consume the one
// big buffer and force a fresh allocation on the next big request).
func (s *Scratch) getBuf(size int) []float64 {
	best := -1
	for i := range s.bufs {
		if cap(s.bufs[i]) >= size && (best < 0 || cap(s.bufs[i]) < cap(s.bufs[best])) {
			best = i
		}
	}
	if best >= 0 {
		b := s.bufs[best]
		s.bufs[best] = s.bufs[len(s.bufs)-1]
		s.bufs = s.bufs[:len(s.bufs)-1]
		return b[:0]
	}
	return make([]float64, 0, size)
}

// putBuf parks a vector for reuse.
func (s *Scratch) putBuf(b []float64) {
	if cap(b) == 0 {
		return
	}
	if len(s.bufs) >= 8 {
		// Keep the freelist small; drop the smallest buffer.
		smallest := 0
		for i := range s.bufs {
			if cap(s.bufs[i]) < cap(s.bufs[smallest]) {
				smallest = i
			}
		}
		if cap(s.bufs[smallest]) < cap(b) {
			s.bufs[smallest] = b[:0]
		}
		return
	}
	s.bufs = append(s.bufs, b[:0])
}
