package poibin

import "sort"

// SM64 is a splitmix64-backed uniform generator used on the Karp–Luby
// sampling hot path. It produces the exact uniform stream that
// rand.New(src).Float64() produces over a Source64 whose Uint64 is the
// SplitMix64 finalizer and whose Int63 is Uint64 >> 1 — the miner's
// per-node source — but as a concrete type: every draw inlines into the
// caller instead of crossing three math/rand wrapper layers with interface
// dispatch, which profiling showed cost ~30% of a sampling-bound mine.
//
// Any change to Float64 must preserve the stream bit for bit; the miner's
// byte-identical-results guarantee (DESIGN §7) depends on it, and
// TestSM64MatchesMathRand pins it against math/rand directly.
type SM64 struct{ state uint64 }

// golden is splitmix64's state increment; it is odd, so it has an inverse
// modulo 2⁶⁴ and every state is c·golden for exactly one counter c.
const golden = 0x9E3779B97F4A7C15

// NewSM64 returns a generator seeded with the given raw state. Callers
// that derive seeds from structured data (e.g. itemsets) should mix them
// first; SplitMix64's increment-then-finalize step decorrelates nearby
// states on its own, so a raw counter or hash is an acceptable seed.
func NewSM64(seed uint64) *SM64 { return &SM64{state: seed} }

// Uint64 advances the state by the golden-ratio increment and applies the
// SplitMix64 finalizer.
func (s *SM64) Uint64() uint64 {
	s.state += golden
	return finalize(s.state)
}

// finalize is the SplitMix64 output function, a bijection on uint64.
func finalize(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unfinalize inverts finalize.
func unfinalize(z uint64) uint64 {
	z = unxorshift(z, 31)
	z *= inverseOdd(0x94D049BB133111EB)
	z = unxorshift(z, 27)
	z *= inverseOdd(0xBF58476D1CE4E5B9)
	return unxorshift(z, 30)
}

// unxorshift inverts z ^ (z >> s): each round recovers s more high bits.
func unxorshift(z uint64, s uint) uint64 {
	x := z
	for i := uint(0); i < 64; i += s {
		x = z ^ (x >> s)
	}
	return x
}

// inverseOdd returns a⁻¹ mod 2⁶⁴ for odd a by Newton iteration; a is its
// own inverse to 3 bits and every step doubles the correct bits.
func inverseOdd(a uint64) uint64 {
	x := a
	for i := 0; i < 5; i++ {
		x *= 2 - a*x
	}
	return x
}

// Int63 matches rand.Rand's Int63 over a Source64: the top 63 bits of
// Uint64.
func (s *SM64) Int63() int64 { return int64(s.Uint64() >> 1) }

// Float64 returns a uniform draw in [0, 1), replicating math/rand's
// rejection loop exactly: divide Int63 by 2⁶³ and retry on a result that
// rounds up to 1.
func (s *SM64) Float64() float64 {
again:
	f := float64(s.Int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

// retryMin is the smallest Uint64 output on which Float64 retries: Int63
// = Uint64>>1 rounds to 2⁶³ as a float64 exactly when it is at least
// 2⁶³ − 2⁹ (ties round to the even 2⁶³), i.e. when Uint64 ≥ 2⁶⁴ − 2¹⁰.
const retryMin = 1<<64 - 1<<10

// retryCounters are the counters c, ascending, whose state c·golden the
// finalizer maps into [retryMin, 2⁶⁴): the only draws Float64 discards.
// The finalizer is a bijection, so there are exactly 2¹⁰ of them.
var retryCounters = func() []uint64 {
	cs := make([]uint64, 0, 1<<10)
	for v := uint64(retryMin); v >= retryMin; v++ {
		cs = append(cs, unfinalize(v)*goldenInv)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	return cs
}()

// goldenInv is golden⁻¹ mod 2⁶⁴: state·goldenInv is the state's counter.
var goldenInv = inverseOdd(golden)

// SkipFloat64 advances the generator exactly as k calls to Float64 would,
// with one binary search over the retry counters per retry crossed
// (plus one) instead of k draws. Draw t after the current state uses
// state + t·golden, so k retry-free draws are one addition; the window of
// counters the k draws cover is checked against the retry preimages, and
// each retry inside it costs one extra draw.
func (s *SM64) SkipFloat64(k int) {
	for k > 0 {
		d := s.retryGap()
		if d >= uint64(k) {
			s.state += uint64(k) * golden
			return
		}
		// d good draws, then the discarded one.
		s.state += (d + 1) * golden
		k -= int(d)
	}
}

// retryGap returns how many draws from the current state come before the
// next one Float64 discards: the distance from the next draw's counter to
// the next retry counter, wrapping around the counter space.
func (s *SM64) retryGap() uint64 {
	next := s.state*goldenInv + 1
	j := sort.Search(len(retryCounters), func(i int) bool { return retryCounters[i] >= next })
	if j == len(retryCounters) {
		j = 0
	}
	return retryCounters[j] - next
}
