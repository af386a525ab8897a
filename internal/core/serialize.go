package core

// Wire forms of Options and Result plus option canonicalization — the
// substrate the pfcimd service (internal/service) builds its HTTP API and
// result cache on. Canonicalization answers "do two option structs request
// the same mining result?"; the JSON forms exist because Options carries an
// io.Writer (Trace) and Result carries internal types, neither of which
// belongs on the wire.

import (
	"fmt"
	"strings"
)

// Canonical returns the canonical form of o: validation and defaulting
// applied (exactly as Mine would), and every field that cannot change the
// mined result — Trace, Tracer, Parallelism, Tidsets and ShardKernel, all
// pure execution knobs per DESIGN §8.3 — cleared to the zero value. Two
// option structs with equal canonical forms produce byte-identical result
// sets, so the canonical form (or CanonicalKey, its string rendering) is a
// sound cache key.
func (o Options) Canonical() (Options, error) {
	c, err := o.normalize()
	if err != nil {
		return Options{}, err
	}
	c.Trace = nil
	c.Tracer = nil
	c.Parallelism = 0
	c.Tidsets = TidsetsAuto
	c.ShardKernel = nil
	return c, nil
}

// CanonicalKey renders the canonical form as a deterministic string listing
// every result-affecting option, suitable as a map key.
func (o Options) CanonicalKey() (string, error) {
	c, err := o.Canonical()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("minsup=%d pfct=%g eps=%g delta=%g seed=%d noch=%t nosuper=%t nosub=%t nobound=%t search=%s maxexact=%d shards=%d",
		c.MinSup, c.PFCT, c.Epsilon, c.Delta, c.Seed,
		c.DisableCH, c.DisableSuperset, c.DisableSubset, c.DisableBounds,
		c.Search, c.MaxExactClauses, c.Shards), nil
}

// OptionsJSON is the wire form of Options: every field except the process-
// local Trace writer and Tracer recorder, with Search as a string. The zero
// value of every field means "use the default", mirroring Options itself,
// so a client may send only min_sup and pfct. (pfcimd attaches its own
// per-job Tracer server-side and serves the profile at
// GET /v1/jobs/{id}/trace.)
type OptionsJSON struct {
	MinSup          int     `json:"min_sup"`
	PFCT            float64 `json:"pfct"`
	Epsilon         float64 `json:"epsilon,omitempty"`
	Delta           float64 `json:"delta,omitempty"`
	Seed            int64   `json:"seed,omitempty"`
	DisableCH       bool    `json:"disable_ch,omitempty"`
	DisableSuperset bool    `json:"disable_superset,omitempty"`
	DisableSubset   bool    `json:"disable_subset,omitempty"`
	DisableBounds   bool    `json:"disable_bounds,omitempty"`
	Search          string  `json:"search,omitempty"`
	MaxExactClauses int     `json:"max_exact_clauses,omitempty"`
	Parallelism     int     `json:"parallelism,omitempty"`
	Tidsets         string  `json:"tidsets,omitempty"`
	Shards          int     `json:"shards,omitempty"`
}

// JSON converts o to its wire form (Trace and Tracer are dropped).
func (o Options) JSON() OptionsJSON {
	search := ""
	if o.Search == BFS {
		search = "BFS"
	}
	tidsets := ""
	if o.Tidsets != TidsetsAuto {
		tidsets = o.Tidsets.String()
	}
	return OptionsJSON{
		MinSup:          o.MinSup,
		PFCT:            o.PFCT,
		Epsilon:         o.Epsilon,
		Delta:           o.Delta,
		Seed:            o.Seed,
		DisableCH:       o.DisableCH,
		DisableSuperset: o.DisableSuperset,
		DisableSubset:   o.DisableSubset,
		DisableBounds:   o.DisableBounds,
		Search:          search,
		MaxExactClauses: o.MaxExactClauses,
		Parallelism:     o.Parallelism,
		Tidsets:         tidsets,
		Shards:          o.Shards,
	}
}

// Options converts the wire form back; an unknown Search string is an
// error. Validation of the numeric fields is left to Mine's normalization.
func (oj OptionsJSON) Options() (Options, error) {
	var search Search
	switch strings.ToUpper(strings.TrimSpace(oj.Search)) {
	case "", "DFS":
		search = DFS
	case "BFS":
		search = BFS
	default:
		return Options{}, fmt.Errorf("core: unknown search framework %q (want \"DFS\" or \"BFS\")", oj.Search)
	}
	var tidsets TidsetMode
	switch strings.ToLower(strings.TrimSpace(oj.Tidsets)) {
	case "", "auto":
		tidsets = TidsetsAuto
	case "dense":
		tidsets = TidsetsDense
	case "compressed":
		tidsets = TidsetsCompressed
	default:
		return Options{}, fmt.Errorf("core: unknown tidset mode %q (want \"auto\", \"dense\" or \"compressed\")", oj.Tidsets)
	}
	return Options{
		MinSup:          oj.MinSup,
		PFCT:            oj.PFCT,
		Epsilon:         oj.Epsilon,
		Delta:           oj.Delta,
		Seed:            oj.Seed,
		DisableCH:       oj.DisableCH,
		DisableSuperset: oj.DisableSuperset,
		DisableSubset:   oj.DisableSubset,
		DisableBounds:   oj.DisableBounds,
		Search:          search,
		MaxExactClauses: oj.MaxExactClauses,
		Parallelism:     oj.Parallelism,
		Tidsets:         tidsets,
		Shards:          oj.Shards,
	}, nil
}

// ResultItemJSON is the wire form of one mined itemset.
type ResultItemJSON struct {
	Items    []int   `json:"items"`
	Prob     float64 `json:"prob"`
	Lower    float64 `json:"lower"`
	Upper    float64 `json:"upper"`
	FreqProb float64 `json:"freq_prob"`
	Method   string  `json:"method"`
}

// ResultJSON is the wire form of a full mining result. Result.Profile is
// deliberately excluded: the wire form must be deterministic per (database,
// canonical options) to be cacheable, and wall-time profiles never are —
// the daemon serves them separately per job.
type ResultJSON struct {
	Itemsets []ResultItemJSON `json:"itemsets"`
	Stats    Stats            `json:"stats"`
	Options  OptionsJSON      `json:"options"`
}

// JSON converts the result to its wire form. Itemsets appear in the
// result's (lexicographic) order, so the wire form is deterministic per
// (database, canonical options).
func (r *Result) JSON() ResultJSON {
	items := make([]ResultItemJSON, len(r.Itemsets))
	for i, ri := range r.Itemsets {
		items[i] = ri.JSON()
	}
	return ResultJSON{Itemsets: items, Stats: r.Stats, Options: r.Options.JSON()}
}

// JSON converts one mined itemset to its wire form.
func (ri ResultItem) JSON() ResultItemJSON {
	ints := make([]int, len(ri.Items))
	for j, it := range ri.Items {
		ints[j] = int(it)
	}
	return ResultItemJSON{
		Items:    ints,
		Prob:     ri.Prob,
		Lower:    ri.Lower,
		Upper:    ri.Upper,
		FreqProb: ri.FreqProb,
		Method:   ri.Method.String(),
	}
}
