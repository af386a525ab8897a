// Package bitset provides a fixed-capacity bit set used throughout the
// miner as a transaction-id set (tidset). Operations that dominate the
// mining inner loops — intersection, population count, and iteration — are
// implemented over 64-bit words with math/bits intrinsics.
//
// A set has two physical representations behind one logical contract
// (DESIGN §13): the dense form stores ceil(n/64) words; the sparse form
// stores the sorted member ids as uint32s, roaring-style, which wins once a
// tidset occupies less than one bit per word (< n/64 members) — exactly the
// regime of high-n, low-support workloads where the dense form wastes
// memory bandwidth streaming empty words. Every operation accepts any
// combination of forms and produces identical logical results; Hash and
// Equal are canonical across forms, so representation choice can never leak
// into memo keys or mining output.
package bitset

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

const wordBits = 64

// Bitset is a set of non-negative integers in [0, Len()). The zero value is
// an empty set of capacity zero; use New to create one with room for n bits.
// Exactly one representation is live, per the sparse flag; the other's
// storage is retained (contents undefined) so pooled sets can flip forms
// without reallocating.
type Bitset struct {
	words  []uint64 // dense storage, live when !sparse
	ids    []uint32 // sparse storage (sorted, unique), live when sparse
	n      int
	sparse bool
}

// New returns a dense Bitset able to hold bits 0..n-1, all clear.
func New(n int) *Bitset {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Bitset{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices returns a Bitset of capacity n with the given bits set.
func FromIndices(n int, idx ...int) *Bitset {
	b := New(n)
	for _, i := range idx {
		b.Set(i)
	}
	return b
}

// Len returns the capacity in bits.
func (b *Bitset) Len() int { return b.n }

// DenseWords exposes the dense word storage for callers that fill many
// bits in tight loops (bit i lives at word i/64, mask 1<<(i%64)). It
// returns nil for a sparse bitset; mutations through the slice are
// mutations of the bitset. Callers guarantee their indices are in range.
func (b *Bitset) DenseWords() []uint64 {
	if b.sparse {
		return nil
	}
	return b.words
}

// Set sets bit i.
func (b *Bitset) Set(i int) {
	b.check(i)
	if b.sparse {
		b.sparseSet(uint32(i))
		return
	}
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i.
func (b *Bitset) Clear(i int) {
	b.check(i)
	if b.sparse {
		b.sparseClear(uint32(i))
		return
	}
	b.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is set.
func (b *Bitset) Test(i int) bool {
	b.check(i)
	if b.sparse {
		return b.sparseTest(uint32(i))
	}
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (b *Bitset) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, b.n))
	}
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	if b.sparse {
		return len(b.ids)
	}
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountRange returns the number of set bits in [lo, hi), for
// 0 ≤ lo ≤ hi ≤ Len(): a popcount over the words the range covers, its end
// words masked, or two binary searches in the sparse form.
func (b *Bitset) CountRange(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	if b.sparse {
		i, _ := slices.BinarySearch(b.ids, uint32(lo))
		j, _ := slices.BinarySearch(b.ids, uint32(hi))
		return j - i
	}
	wl, wh := lo/wordBits, (hi-1)/wordBits
	first := b.words[wl] >> (lo % wordBits)
	last := ^uint64(0) >> (wordBits - 1 - (hi-1)%wordBits) // bits up to hi−1
	if wl == wh {
		return bits.OnesCount64(first & (last >> (lo % wordBits)))
	}
	c := bits.OnesCount64(first) + bits.OnesCount64(b.words[wh]&last)
	for _, w := range b.words[wl+1 : wh] {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (b *Bitset) Any() bool {
	if b.sparse {
		return len(b.ids) > 0
	}
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns an independent copy of b, preserving its representation.
func (b *Bitset) Clone() *Bitset {
	if b.sparse {
		ids := make([]uint32, len(b.ids))
		copy(ids, b.ids)
		return &Bitset{ids: ids, n: b.n, sparse: true}
	}
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Bitset{words: w, n: b.n}
}

// CopyFrom overwrites b with the contents (and representation) of src. The
// two sets must have the same capacity.
func (b *Bitset) CopyFrom(src *Bitset) {
	if b.n != src.n {
		panic("bitset: CopyFrom capacity mismatch")
	}
	if src.sparse {
		b.ids = append(b.ids[:0], src.ids...)
		b.sparse = true
		return
	}
	b.ensureWords(len(src.words))
	copy(b.words, src.words)
	b.sparse = false
}

// ensureWords makes the dense storage exactly l words long, reusing
// capacity when possible. Contents are undefined afterwards.
func (b *Bitset) ensureWords(l int) {
	if cap(b.words) < l {
		b.words = make([]uint64, l)
		return
	}
	b.words = b.words[:l]
}

// AndInto stores x ∩ y into dst and returns the resulting population count.
// All three sets must share the same capacity; dst may alias x or y. A
// dense∩dense intersection yields a dense result; if either operand is
// sparse the result is sparse (it is contained in the sparse operand).
func AndInto(dst, x, y *Bitset) int {
	if dst.n != x.n || x.n != y.n {
		panic("bitset: AndInto capacity mismatch")
	}
	if !x.sparse && !y.sparse {
		dst.ensureWords(len(x.words))
		dst.sparse = false
		c := 0
		for i := range dst.words {
			w := x.words[i] & y.words[i]
			dst.words[i] = w
			c += bits.OnesCount64(w)
		}
		return c
	}
	return andIntoSparse(dst, x, y)
}

// AndCountAtLeast reports whether |x ∩ y| ≥ k without materializing the
// intersection, scanning only until the verdict is certain: it returns true
// as soon as the running count reaches k, and false as soon as the bits
// remaining cannot close the gap. For the special case k = Count(x) — "does
// y cover x?", the miner's superset-pruning and closure tests — IsSubset is
// strictly better (it exits on the first uncovered word); use
// AndCountAtLeast for thresholds below a full cover, e.g. minimum-support
// checks that don't need the intersection itself.
func AndCountAtLeast(x, y *Bitset, k int) bool {
	if x.n != y.n {
		panic("bitset: AndCountAtLeast capacity mismatch")
	}
	if k <= 0 {
		return true
	}
	if x.sparse || y.sparse {
		return andCountAtLeastSparse(x, y, k)
	}
	c := 0
	remaining := len(x.words) * wordBits
	for i := range x.words {
		remaining -= wordBits
		c += bits.OnesCount64(x.words[i] & y.words[i])
		if c >= k {
			return true
		}
		if c+remaining < k {
			return false
		}
	}
	return false
}

// And returns a new set x ∩ y.
func And(x, y *Bitset) *Bitset {
	dst := New(x.n)
	AndInto(dst, x, y)
	return dst
}

// AndCount returns |x ∩ y| without allocating.
func AndCount(x, y *Bitset) int {
	if x.n != y.n {
		panic("bitset: AndCount capacity mismatch")
	}
	if x.sparse || y.sparse {
		return andCountSparse(x, y)
	}
	c := 0
	for i := range x.words {
		c += bits.OnesCount64(x.words[i] & y.words[i])
	}
	return c
}

// Or returns a new (dense) set x ∪ y.
func Or(x, y *Bitset) *Bitset {
	if x.n != y.n {
		panic("bitset: Or capacity mismatch")
	}
	dst := New(x.n)
	x.writeWordsTo(dst.words)
	if y.sparse {
		for _, id := range y.ids {
			dst.words[id/wordBits] |= 1 << (id % wordBits)
		}
		return dst
	}
	for i := range dst.words {
		dst.words[i] |= y.words[i]
	}
	return dst
}

// AndNot returns a new set x \ y (sparse when x is sparse).
func AndNot(x, y *Bitset) *Bitset {
	if x.n != y.n {
		panic("bitset: AndNot capacity mismatch")
	}
	if x.sparse || y.sparse {
		return andNotSparse(x, y)
	}
	dst := New(x.n)
	for i := range dst.words {
		dst.words[i] = x.words[i] &^ y.words[i]
	}
	return dst
}

// IsSubset reports whether every bit of x is also set in y.
func IsSubset(x, y *Bitset) bool {
	if x.n != y.n {
		panic("bitset: IsSubset capacity mismatch")
	}
	if x.sparse || y.sparse {
		return isSubsetSparse(x, y)
	}
	for i := range x.words {
		if x.words[i]&^y.words[i] != 0 {
			return false
		}
	}
	return true
}

// Hash returns a 64-bit FNV-1a digest of the set's contents. Two sets with
// equal contents (and capacity) hash identically regardless of
// representation; use Equal to confirm a match. The miner keys its
// Poisson-binomial memo on this.
func (b *Bitset) Hash() uint64 {
	if b.sparse {
		return b.sparseHash()
	}
	h := uint64(fnvOffset64)
	for _, w := range b.words {
		h = (h ^ w) * fnvPrime64
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Equal reports whether x and y contain exactly the same bits, in any
// combination of representations.
func Equal(x, y *Bitset) bool {
	if x.n != y.n {
		return false
	}
	if x.sparse || y.sparse {
		return equalSparse(x, y)
	}
	for i := range x.words {
		if x.words[i] != y.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending order. Iteration stops
// early if fn returns false.
func (b *Bitset) ForEach(fn func(i int) bool) {
	if b.sparse {
		for _, id := range b.ids {
			if !fn(int(id)) {
				return
			}
		}
		return
	}
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + tz) {
				return
			}
			w &= w - 1
		}
	}
}

// Indices returns the set bits in ascending order.
func (b *Bitset) Indices() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// SetAll sets every bit in [0, Len()), leaving the set dense.
func (b *Bitset) SetAll() {
	if b.sparse {
		b.sparse = false
		b.ensureWords((b.n + wordBits - 1) / wordBits)
	}
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// Reset clears every bit, preserving the representation.
func (b *Bitset) Reset() {
	if b.sparse {
		b.ids = b.ids[:0]
		return
	}
	for i := range b.words {
		b.words[i] = 0
	}
}

// trim clears the unused high bits of the final word so that Count and
// word-level comparisons stay correct.
func (b *Bitset) trim() {
	if r := b.n % wordBits; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(r)) - 1
	}
}

// String renders the set as {i1, i2, …} for debugging.
func (b *Bitset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.ForEach(func(i int) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}
