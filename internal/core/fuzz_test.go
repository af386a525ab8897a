package core

import (
	"encoding/json"
	"testing"
)

// FuzzOptionsJSON feeds hostile wire forms through the OptionsJSON →
// Options → Canonical pipeline and pins the serialization contracts: no
// panic on any input, Canonical is idempotent, CanonicalKey is a pure
// function of the canonical form, and the JSON round trip preserves it.
// These are exactly the properties pfcimd's result cache keys rely on.
//
// Reproduce a failing input with
//
//	go test ./internal/core -run FuzzOptionsJSON/<hash>
func FuzzOptionsJSON(f *testing.F) {
	f.Add([]byte(`{"min_sup": 2, "pfct": 0.8}`))
	f.Add([]byte(`{"min_sup": 1, "pfct": 0.5, "search": "BFS", "seed": 42}`))
	f.Add([]byte(`{"min_sup": 3, "pfct": 0.1, "epsilon": 0.05, "delta": 0.01, "max_exact_clauses": -1}`))
	f.Add([]byte(`{"min_sup": 2, "pfct": 0.8, "parallelism": 8}`))
	f.Add([]byte(`{"pfct": 1e308, "min_sup": -5, "search": "dfs"}`))
	f.Add([]byte(`{"search": "sideways"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var oj OptionsJSON
		if err := json.Unmarshal(data, &oj); err != nil {
			return
		}
		o, err := oj.Options()
		if err != nil {
			return // invalid Search string: rejected, not panicked
		}
		c, err := o.Canonical()
		if err != nil {
			return // invalid thresholds: rejected by normalization
		}
		key, err := o.CanonicalKey()
		if err != nil {
			t.Fatalf("CanonicalKey failed after Canonical succeeded: %v", err)
		}

		// Idempotence: canonicalizing a canonical form is the identity.
		c2, err := c.Canonical()
		if err != nil {
			t.Fatalf("Canonical not closed: %v", err)
		}
		if c2 != c {
			t.Fatalf("Canonical not idempotent:\n first %+v\nsecond %+v", c, c2)
		}
		cKey, err := c.CanonicalKey()
		if err != nil || cKey != key {
			t.Fatalf("CanonicalKey differs across canonicalization: %q vs %q (err=%v)", key, cKey, err)
		}

		// Wire round trip: JSON() → Options() lands on the same canonical
		// form, so a cache keyed on CanonicalKey is stable across the wire.
		rt, err := c.JSON().Options()
		if err != nil {
			t.Fatalf("round trip rejected canonical options: %v", err)
		}
		rtKey, err := rt.CanonicalKey()
		if err != nil || rtKey != key {
			t.Fatalf("round trip changed the canonical key: %q vs %q (err=%v)", key, rtKey, err)
		}
	})
}
