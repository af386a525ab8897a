package crosscheck

import (
	"testing"
)

// FuzzMine drives the whole differential and metamorphic harness from four
// fuzzed scalars: the case seed plus the shape and size selectors. Every
// database the fuzzer reaches stays within the possible-world oracle, so
// any counterexample it finds is a real miner bug, not a flaky estimate.
//
// Reproduce a failing input with
//
//	go test ./internal/crosscheck -run FuzzMine/<hash>
func FuzzMine(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed%4), uint8(8), uint8(6))
	}
	f.Add(int64(1012), uint8(0), uint8(8), uint8(6))   // crossed-sandwich regression family
	f.Add(int64(424242), uint8(3), uint8(1), uint8(1)) // smallest possible database
	// testdata's e655d15b7d0036b9 as found, when its shape selector picked
	// sparsewide from the five-shape list.
	f.Add(int64(158), uint8(4), uint8('N'), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, shapeSel, transSel, itemsSel uint8) {
		c := Case{
			Shape:    Shapes[int(shapeSel)%len(Shapes)],
			Seed:     seed,
			MaxTrans: 1 + int(transSel)%DiffMaxTrans,
			MaxItems: 1 + int(itemsSel)%DiffMaxItems,
		}
		if err := RunDifferential(c); err != nil {
			t.Fatal(err)
		}
		// The same small case must also satisfy every oracle-free invariant.
		db, opts := c.Build()
		if err := Invariants(db, opts); err != nil {
			t.Fatalf("crosscheck: %v: %v", c, err)
		}
	})
}
