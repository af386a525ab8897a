package bitset

import (
	"math/rand"
	"testing"
)

// randSet returns a random dense bitset plus the same contents compacted.
func randSet(rng *rand.Rand, n int, rate float64) (*Bitset, *Bitset) {
	d := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < rate {
			d.Set(i)
		}
	}
	return d, d.Compacted()
}

// forms returns the four dense/sparse operand pairings of (x, y).
func forms(xd, xs, yd, ys *Bitset) [][2]*Bitset {
	return [][2]*Bitset{{xd, yd}, {xd, ys}, {xs, yd}, {xs, ys}}
}

// TestCrossFormOps: every binary operation must agree across all four
// representation pairings, using the dense×dense result as oracle.
func TestCrossFormOps(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		xd, xs := randSet(rng, n, rng.Float64())
		yd, ys := randSet(rng, n, rng.Float64())
		wantAnd := And(xd, yd)
		wantCnt := wantAnd.Count()
		wantSub := IsSubset(xd, yd)
		wantEq := Equal(xd, yd)
		wantNotIdx := AndNot(xd, yd).Indices()
		wantOr := Or(xd, yd)
		for fi, pair := range forms(xd, xs, yd, ys) {
			x, y := pair[0], pair[1]
			got := And(x, y)
			if !Equal(got, wantAnd) {
				t.Fatalf("trial %d form %d: And mismatch: %v vs %v", trial, fi, got, wantAnd)
			}
			if c := AndCount(x, y); c != wantCnt {
				t.Fatalf("trial %d form %d: AndCount=%d want %d", trial, fi, c, wantCnt)
			}
			for _, k := range []int{0, 1, wantCnt, wantCnt + 1, n} {
				if got, want := AndCountAtLeast(x, y, k), wantCnt >= k || k <= 0; got != want {
					t.Fatalf("trial %d form %d: AndCountAtLeast(k=%d)=%v want %v", trial, fi, k, got, want)
				}
			}
			if s := IsSubset(x, y); s != wantSub {
				t.Fatalf("trial %d form %d: IsSubset=%v want %v", trial, fi, s, wantSub)
			}
			if e := Equal(x, y); e != wantEq {
				t.Fatalf("trial %d form %d: Equal=%v want %v", trial, fi, e, wantEq)
			}
			var diff []int
			ForEachDiff(x, y, func(i int) bool { diff = append(diff, i); return true })
			if len(diff) != len(wantNotIdx) {
				t.Fatalf("trial %d form %d: ForEachDiff len %d want %d", trial, fi, len(diff), len(wantNotIdx))
			}
			for i := range diff {
				if diff[i] != wantNotIdx[i] {
					t.Fatalf("trial %d form %d: ForEachDiff[%d]=%d want %d", trial, fi, i, diff[i], wantNotIdx[i])
				}
			}
			gotNot := AndNot(x, y)
			if gotNot.Count() != len(wantNotIdx) || !Equal(gotNot, AndNot(xd, yd)) {
				t.Fatalf("trial %d form %d: AndNot mismatch", trial, fi)
			}
			if !Equal(Or(x, y), wantOr) {
				t.Fatalf("trial %d form %d: Or mismatch", trial, fi)
			}
		}
	}
}

// TestCrossFormAndInto covers AndInto's aliasing and representation-switch
// matrix: dst fresh, dst==x, dst==y, for every operand form pairing.
func TestCrossFormAndInto(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(300)
		xd, xs := randSet(rng, n, rng.Float64())
		yd, ys := randSet(rng, n, rng.Float64())
		want := And(xd, yd)
		wantCnt := want.Count()
		for fi, pair := range forms(xd, xs, yd, ys) {
			// dst fresh (dense-born and sparse-born).
			for _, dst := range []*Bitset{New(n), New(n).Compacted()} {
				if c := AndInto(dst, pair[0], pair[1]); c != wantCnt || !Equal(dst, want) {
					t.Fatalf("trial %d form %d: fresh-dst AndInto c=%d want %d", trial, fi, c, wantCnt)
				}
			}
			// dst aliases x.
			x := pair[0].Clone()
			if c := AndInto(x, x, pair[1]); c != wantCnt || !Equal(x, want) {
				t.Fatalf("trial %d form %d: dst==x AndInto mismatch (c=%d)", trial, fi, c)
			}
			// dst aliases y.
			y := pair[1].Clone()
			if c := AndInto(y, pair[0], y); c != wantCnt || !Equal(y, want) {
				t.Fatalf("trial %d form %d: dst==y AndInto mismatch (c=%d)", trial, fi, c)
			}
		}
	}
}

// TestHashCanonicalAcrossForms: the memo key must not depend on the
// representation.
func TestHashCanonicalAcrossForms(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(2000)
		d, s := randSet(rng, n, rng.Float64()*0.2)
		if d.Hash() != s.Hash() {
			t.Fatalf("trial %d: dense hash %x != sparse hash %x (n=%d count=%d)", trial, d.Hash(), s.Hash(), n, d.Count())
		}
	}
	// Empty and full sets, including capacities not divisible by 64.
	for _, n := range []int{0, 1, 63, 64, 65, 500} {
		d := New(n)
		if d.Hash() != d.Compacted().Hash() {
			t.Fatalf("empty n=%d: hash differs across forms", n)
		}
		d.SetAll()
		if d.Hash() != d.Compacted().Hash() {
			t.Fatalf("full n=%d: hash differs across forms", n)
		}
	}
}

// TestSparseMutators: Set/Clear/Test/Reset on the sparse form.
func TestSparseMutators(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	n := 500
	d := New(n)
	s := New(n).Compacted()
	for op := 0; op < 2000; op++ {
		i := rng.Intn(n)
		if rng.Intn(2) == 0 {
			d.Set(i)
			s.Set(i)
		} else {
			d.Clear(i)
			s.Clear(i)
		}
		if d.Test(i) != s.Test(i) {
			t.Fatalf("op %d: Test(%d) differs", op, i)
		}
	}
	if !Equal(d, s) || d.Count() != s.Count() {
		t.Fatalf("mutator drift: %v vs %v", d, s)
	}
	s.Reset()
	if s.Any() || s.Count() != 0 || !s.IsSparse() {
		t.Fatalf("Reset broke sparse set: %v", s)
	}
	s.SetAll()
	if s.Count() != n || s.IsSparse() {
		t.Fatalf("SetAll: count=%d sparse=%v", s.Count(), s.IsSparse())
	}
}

// TestCopyFromAcrossForms: CopyFrom must adopt the source representation
// and reuse destination storage.
func TestCopyFromAcrossForms(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	n := 400
	d, s := randSet(rng, n, 0.3)
	for _, dst := range []*Bitset{New(n), New(n).Compacted()} {
		dst.CopyFrom(d)
		if !Equal(dst, d) || dst.IsSparse() {
			t.Fatalf("CopyFrom dense: mismatch")
		}
		dst.CopyFrom(s)
		if !Equal(dst, s) || !dst.IsSparse() {
			t.Fatalf("CopyFrom sparse: mismatch")
		}
	}
}

// TestAndBatchMatchesAndInto: the column sweep must agree with individual
// intersections for dense operands, and the fallback must handle sparse
// mixes.
func TestAndBatchMatchesAndInto(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(500)
		parentD, parentS := randSet(rng, n, rng.Float64())
		m := 1 + rng.Intn(20)
		var srcs []*Bitset
		for i := 0; i < m; i++ {
			sd, ss := randSet(rng, n, rng.Float64())
			if rng.Intn(3) == 0 {
				srcs = append(srcs, ss)
			} else {
				srcs = append(srcs, sd)
			}
		}
		for _, parent := range []*Bitset{parentD, parentS} {
			dsts := make([]*Bitset, m)
			counts := make([]int, m)
			for i := range dsts {
				dsts[i] = New(n)
			}
			AndBatch(dsts, counts, parent, srcs)
			for i := range srcs {
				want := New(n)
				wc := AndInto(want, parent, srcs[i])
				if counts[i] != wc || !Equal(dsts[i], want) {
					t.Fatalf("trial %d src %d: batch (%d) vs AndInto (%d) mismatch", trial, i, counts[i], wc)
				}
			}
		}
	}
}

// TestPoolReuse: the pool must recycle sets and carve structs/words from
// slabs; steady-state Get/Put with intersections must not allocate.
func TestPoolReuse(t *testing.T) {
	n := 1000
	p := NewPool(n)
	x := New(n)
	y := New(n)
	for i := 0; i < n; i += 3 {
		x.Set(i)
	}
	for i := 0; i < n; i += 2 {
		y.Set(i)
	}
	var held []*Bitset
	for i := 0; i < 200; i++ {
		b := p.Get()
		if b.Len() != n {
			t.Fatalf("pool set has capacity %d, want %d", b.Len(), n)
		}
		AndInto(b, x, y)
		held = append(held, b)
	}
	for _, b := range held {
		p.Put(b)
	}
	allocs := testing.AllocsPerRun(100, func() {
		b := p.Get()
		AndInto(b, x, y)
		p.Put(b)
	})
	if allocs != 0 {
		t.Fatalf("steady-state pool Get/AndInto/Put allocated %v times per run, want 0", allocs)
	}
	// Foreign capacities are dropped, not pooled.
	p.Put(New(n + 1))
	p.Put(nil)
}

// TestShouldCompact pins the density threshold contract.
func TestShouldCompact(t *testing.T) {
	if ShouldCompact(10, 512) {
		t.Fatal("small capacities must stay dense")
	}
	if !ShouldCompact(10, 4096) {
		t.Fatal("10/4096 is sparse territory")
	}
	if ShouldCompact(4096/wordBits, 4096) {
		t.Fatal("threshold must be strict")
	}
}

// TestNewSparseValidation: malformed id slices must panic.
func TestNewSparseValidation(t *testing.T) {
	for _, ids := range [][]uint32{{5, 5}, {7, 3}, {999}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewSparse(%v) did not panic", ids)
				}
			}()
			NewSparse(100, ids)
		}()
	}
	b := NewSparse(100, []uint32{1, 50, 99})
	if b.Count() != 3 || !b.Test(50) || b.Test(2) {
		t.Fatalf("NewSparse contents wrong: %v", b)
	}
}

// TestCountRangeMatchesForEach: CountRange must equal the number of
// ForEach members in the range, on dense and compacted sets, for the
// per-shard ranges of every layout of two to eight shards (whose
// boundaries i·n/N mostly fall inside a word) and for random ranges,
// empty and single-word ones included.
func TestCountRangeMatchesForEach(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	forEachCount := func(b *Bitset, lo, hi int) int {
		c := 0
		b.ForEach(func(i int) bool {
			if i >= lo && i < hi {
				c++
			}
			return i < hi
		})
		return c
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(900)
		d, s := randSet(rng, n, rng.Float64()*rng.Float64())
		var ranges [][2]int
		for shards := 2; shards <= 8; shards++ {
			for i := 0; i < shards; i++ {
				ranges = append(ranges, [2]int{i * n / shards, (i + 1) * n / shards})
			}
		}
		for r := 0; r < 20; r++ {
			lo := rng.Intn(n + 1)
			ranges = append(ranges, [2]int{lo, lo + rng.Intn(min(n-lo, 70)+1)})
		}
		for _, r := range ranges {
			want := forEachCount(d, r[0], r[1])
			for _, b := range []*Bitset{d, s} {
				if got := b.CountRange(r[0], r[1]); got != want {
					t.Fatalf("n=%d sparse=%v [%d,%d): CountRange %d, ForEach %d", n, b.IsSparse(), r[0], r[1], got, want)
				}
			}
		}
	}
}
