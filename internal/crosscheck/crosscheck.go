package crosscheck

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http/httptest"
	"os"
	"reflect"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/dnf"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/obs"
	"github.com/probdata/pfcim/internal/shard"
	"github.com/probdata/pfcim/internal/stream"
	"github.com/probdata/pfcim/internal/sweep"
	"github.com/probdata/pfcim/internal/uncertain"
	"github.com/probdata/pfcim/internal/world"
)

// tieEps is the borderline band around pfct: an itemset whose exact Pr_FC
// lies within tieEps of the threshold may flip either way under float
// rounding (the oracle and the miner accumulate the same quantities in
// different orders), so differential checks exclude it. Everything farther
// from the threshold must match exactly.
const tieEps = 1e-9

// Default case sizes. Differential cases must fit the 2ⁿ world oracle;
// invariant cases go well beyond it to exercise the paths (sampling, deep
// enumeration, parallel splitting) that tiny databases never reach.
const (
	DiffMaxTrans      = 8
	DiffMaxItems      = 6
	InvariantMaxTrans = 36
	InvariantMaxItems = 10
	// Representation cases for the wide shapes go to sizes where the
	// auto tidset policy actually mixes dense and compressed sets (n ≥
	// 1024).
	RepMaxTrans = 2048
	RepMaxItems = 18
)

// forcedTidsets lets CI force the tidset representation for every case the
// harness builds (CROSSCHECK_TIDSETS=dense|compressed). Tidsets is a pure
// execution knob, so a forced run must reproduce the unforced suite
// verbatim — any divergence fails the normal assertions.
var forcedTidsets = func() core.TidsetMode {
	switch os.Getenv("CROSSCHECK_TIDSETS") {
	case "dense":
		return core.TidsetsDense
	case "compressed":
		return core.TidsetsCompressed
	}
	return core.TidsetsAuto
}()

// diffItemLimit bounds the item universe a differential case may have: the
// exact inclusion–exclusion forced by Differential is 2^clauses and the
// clause count is bounded by the universe size.
const diffItemLimit = 12

// Case is one reproducible cross-check: a database shape and a seed. The
// seed drives both the generated database and the derived thresholds, so a
// failure report of (shape, seed) reproduces the whole scenario.
type Case struct {
	Shape Shape
	Seed  int64
	// MaxTrans and MaxItems bound the generated database; zero means the
	// differential defaults.
	MaxTrans, MaxItems int
}

func (c Case) String() string {
	return fmt.Sprintf("shape=%s seed=%d", c.Shape, c.Seed)
}

func (c Case) withDefaults() Case {
	if c.MaxTrans == 0 {
		c.MaxTrans = DiffMaxTrans
	}
	if c.MaxItems == 0 {
		c.MaxItems = DiffMaxItems
	}
	return c
}

// Build generates the case's database and mining options. The pfct palette
// deliberately includes near-0 and near-1 thresholds: certain tuples give
// step-function tails, and a bound that has been loosened by as little as
// 1e-3 mis-prunes exactly there.
func (c Case) Build() (*uncertain.DB, core.Options) {
	c = c.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	db := GenDB(c.Shape, rng, c.MaxTrans, c.MaxItems)
	minSup := 1 + rng.Intn(3)
	if minSup > db.N() {
		minSup = db.N()
	}
	var pfct float64
	switch rng.Intn(10) {
	case 0:
		pfct = 0.0005
	case 1:
		pfct = 0.9995
	case 2:
		pfct = 0.02 + rng.Float64()*0.96
	default:
		pfct = []float64{0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95}[rng.Intn(7)]
	}
	return db, core.Options{MinSup: minSup, PFCT: pfct, Seed: c.Seed, Tidsets: forcedTidsets}
}

// variants are the miner configurations the differential suite rotates
// through; every one must match the oracle on every case.
var variants = []struct {
	Name   string
	Modify func(*core.Options)
}{
	{"mpfci", func(*core.Options) {}},
	{"nobound", func(o *core.Options) { o.DisableBounds = true }},
	{"noch", func(o *core.Options) { o.DisableCH = true }},
	{"nosuper", func(o *core.Options) { o.DisableSuperset = true }},
	{"nosub", func(o *core.Options) { o.DisableSubset = true }},
	{"bfs", func(o *core.Options) { o.Search = core.BFS }},
	{"alloff", func(o *core.Options) {
		o.DisableCH = true
		o.DisableSuperset = true
		o.DisableSubset = true
		o.DisableBounds = true
	}},
	// Sharded tails regroup IEEE sums by a few ulps — far inside the tieEps
	// band — so the sharded paths must still match the exact oracle on every
	// differential case.
	{"shards2", func(o *core.Options) { o.Shards = 2 }},
	{"shards4", func(o *core.Options) { o.Shards = 4 }},
}

// RunDifferential builds the case and cross-checks the full miner output
// against exact possible-world enumeration: the plain MPFCI configuration,
// its bound-free twin (isolating Lemma 4.4), and one further seed-chosen
// variant. Any error embeds the case so it reproduces from (shape, seed).
func RunDifferential(c Case) error {
	db, opts := c.Build()
	tab, err := world.AllProbs(db, opts.MinSup)
	if err != nil {
		return fmt.Errorf("crosscheck: %v: oracle: %w", c, err)
	}
	extra := 2 + int(uint64(c.Seed)%uint64(len(variants)-2))
	for _, vi := range []int{0, 1, extra} {
		v := variants[vi]
		o := opts
		v.Modify(&o)
		if err := differential(db, o, tab); err != nil {
			return fmt.Errorf("crosscheck: %v variant=%s: %w", c, v.Name, err)
		}
	}
	return nil
}

// Differential mines db at opts with the checking phase forced exact and
// asserts the result set equals the oracle's {X : Pr_FC(X) > pfct}, with
// exact probabilities, exact Pr_F, and a Lemma 4.4 sandwich that contains
// the true value. Only itemsets whose exact Pr_FC is within tieEps of the
// threshold are allowed to differ.
func Differential(db *uncertain.DB, opts core.Options) error {
	tab, err := world.AllProbs(db, opts.MinSup)
	if err != nil {
		return fmt.Errorf("crosscheck: oracle: %w", err)
	}
	return differential(db, opts, tab)
}

func differential(db *uncertain.DB, opts core.Options, tab *world.ProbTable) error {
	if db.N() > world.MaxTransactions {
		return fmt.Errorf("crosscheck: %d transactions exceed the differential oracle limit %d", db.N(), world.MaxTransactions)
	}
	if n := len(db.Items()); n > diffItemLimit {
		return fmt.Errorf("crosscheck: %d items exceed the differential limit %d", n, diffItemLimit)
	}
	// Force exact inclusion–exclusion: sampled estimates carry (ε, δ)
	// guarantees, not equality, and every clause system here is small.
	opts.MaxExactClauses = dnf.ExactUnionLimit
	res, err := core.Mine(db, opts)
	if err != nil {
		return fmt.Errorf("crosscheck: mine: %w", err)
	}
	got := make(map[string]core.ResultItem, len(res.Itemsets))
	for _, ri := range res.Itemsets {
		got[ri.Items.Key()] = ri
	}
	var fail error
	tab.ForEach(func(x itemset.Itemset, prF, _, prFC float64) {
		if fail != nil {
			return
		}
		ri, mined := got[x.Key()]
		switch {
		case prFC > opts.PFCT+tieEps && !mined:
			fail = fmt.Errorf("missing itemset %v: exact Pr_FC=%.12g > pfct=%g (minSup=%d)", x, prFC, opts.PFCT, opts.MinSup)
		case prFC <= opts.PFCT-tieEps && mined:
			fail = fmt.Errorf("spurious itemset %v: exact Pr_FC=%.12g ≤ pfct=%g (minSup=%d, method=%v)", x, prFC, opts.PFCT, opts.MinSup, ri.Method)
		}
		if fail != nil || !mined {
			return
		}
		if ri.Lower > prFC+tieEps || ri.Upper < prFC-tieEps {
			fail = fmt.Errorf("itemset %v: exact Pr_FC=%.12g outside reported sandwich [%.12g, %.12g] (method=%v)",
				x, prFC, ri.Lower, ri.Upper, ri.Method)
			return
		}
		if d := ri.FreqProb - prF; d > tieEps || d < -tieEps {
			fail = fmt.Errorf("itemset %v: reported Pr_F=%.12g, exact %.12g", x, ri.FreqProb, prF)
			return
		}
		if ri.Method == core.MethodExact || ri.Method == core.MethodNoClauses {
			if d := ri.Prob - prFC; d > tieEps || d < -tieEps {
				fail = fmt.Errorf("itemset %v: reported Pr_FC=%.12g, exact %.12g (method=%v)", x, ri.Prob, prFC, ri.Method)
				return
			}
		}
	})
	return fail
}

// RunInvariants builds the case at invariant sizes (beyond the oracle) and
// checks every metamorphic property.
func RunInvariants(c Case) error {
	if c.MaxTrans == 0 {
		c.MaxTrans = InvariantMaxTrans
	}
	if c.MaxItems == 0 {
		c.MaxItems = InvariantMaxItems
	}
	db, opts := c.Build()
	if err := Invariants(db, opts); err != nil {
		return fmt.Errorf("crosscheck: %v: %w", c, err)
	}
	return nil
}

// Invariants checks the oracle-free metamorphic properties of a mining run
// at opts: result well-formedness and the Lemma 4.4 sandwich, threshold
// monotonicity in pfct and MinSup, byte-identical determinism across every
// execution knob (parallelism, tracer), DFS/BFS agreement, and
// sweep-derived vs independently-mined byte-identity. These hold on
// databases of any size.
func Invariants(db *uncertain.DB, opts core.Options) error {
	base, err := core.Mine(db, opts)
	if err != nil {
		return fmt.Errorf("mine: %w", err)
	}
	if err := wellFormed(base); err != nil {
		return err
	}

	// Monotonicity in pfct: raising the threshold can only shrink the
	// result set. Deterministic per-node seeding makes this exact even for
	// sampled resolutions — the union estimate of an itemset is a function
	// of (Seed, itemset), never of the threshold.
	hi := opts
	hi.PFCT = opts.PFCT + (1-opts.PFCT)*0.4
	if hi.PFCT < 1 && hi.PFCT > opts.PFCT {
		resHi, err := core.Mine(db, hi)
		if err != nil {
			return fmt.Errorf("mine at pfct=%g: %w", hi.PFCT, err)
		}
		baseKeys := keySet(base.Itemsets)
		for _, ri := range resHi.Itemsets {
			if !baseKeys[ri.Items.Key()] {
				return fmt.Errorf("pfct monotonicity violated: %v accepted at pfct=%g but not at pfct=%g",
					ri.Items, hi.PFCT, opts.PFCT)
			}
		}
	}

	// Monotonicity in MinSup: Pr_FC is pointwise non-increasing in the
	// support threshold, so raising it shrinks the accepted set. Checked
	// with the union forced exact (sampled estimates at different MinSup
	// are different random variables), borderline band excluded.
	ex := opts
	ex.MaxExactClauses = dnf.ExactUnionLimit
	if ex.MinSup < db.N() {
		exBase, err := core.Mine(db, ex)
		if err != nil {
			return fmt.Errorf("mine exact: %w", err)
		}
		ms := ex
		ms.MinSup++
		resMs, err := core.Mine(db, ms)
		if err != nil {
			return fmt.Errorf("mine at minSup=%d: %w", ms.MinSup, err)
		}
		baseKeys := keySet(exBase.Itemsets)
		for _, ri := range resMs.Itemsets {
			if !baseKeys[ri.Items.Key()] && ri.Prob > opts.PFCT+tieEps && ri.Method != core.MethodBoundAccepted {
				return fmt.Errorf("minSup monotonicity violated: %v (Pr_FC=%.12g) accepted at minSup=%d but not at minSup=%d",
					ri.Items, ri.Prob, ms.MinSup, ex.MinSup)
			}
		}
	}

	// Determinism: results and scheduling-independent stats are
	// byte-identical across every execution knob.
	for _, k := range []struct {
		name   string
		modify func(*core.Options)
	}{
		{"parallel4", func(o *core.Options) { o.Parallelism = 4 }},
		{"tracer", func(o *core.Options) { o.Tracer = obs.New() }},
	} {
		alt := opts
		k.modify(&alt)
		resAlt, err := core.Mine(db, alt)
		if err != nil {
			return fmt.Errorf("mine %s: %w", k.name, err)
		}
		if !sameResults(resAlt.Itemsets, base.Itemsets) {
			return fmt.Errorf("determinism violated: %s run differs from serial run (%d vs %d itemsets)",
				k.name, len(resAlt.Itemsets), len(base.Itemsets))
		}
		if a, b := schedIndependent(resAlt.Stats), schedIndependent(base.Stats); a != b {
			return fmt.Errorf("determinism violated: %s stats %+v differ from serial %+v", k.name, a, b)
		}
	}

	// DFS/BFS agreement on the accepted set (exact-forced: the frameworks
	// share the checking cascade but visit nodes in different orders, so
	// only the verdicts are comparable, and only when they are exact).
	if ex.MinSup <= db.N() {
		exBase, err := core.Mine(db, ex)
		if err != nil {
			return fmt.Errorf("mine exact: %w", err)
		}
		bfs := ex
		bfs.Search = core.BFS
		resBFS, err := core.Mine(db, bfs)
		if err != nil {
			return fmt.Errorf("mine bfs: %w", err)
		}
		if !sameKeys(exBase.Itemsets, resBFS.Itemsets) {
			return fmt.Errorf("DFS/BFS disagree: DFS %d itemsets, BFS %d", len(exBase.Itemsets), len(resBFS.Itemsets))
		}
	}

	// Sweep-derived points are byte-identical to independent mining — the
	// bound-replay shortcut must be invisible.
	if hi.PFCT < 1 && hi.PFCT > opts.PFCT {
		points := []sweep.Point{{PFCT: hi.PFCT}, {PFCT: opts.PFCT}}
		sres, err := sweep.Mine(context.Background(), db, points, opts)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		for i, pr := range sres.Points {
			ind, err := core.Mine(db, pr.Point.Apply(opts))
			if err != nil {
				return fmt.Errorf("sweep point %d independent mine: %w", i, err)
			}
			if !sameResults(pr.Itemsets, ind.Itemsets) {
				return fmt.Errorf("sweep point %d (pfct=%g, derived=%t) differs from independent mine (%d vs %d itemsets)",
					i, pr.Point.PFCT, pr.Derived, len(pr.Itemsets), len(ind.Itemsets))
			}
		}
	}
	return nil
}

// RunRepresentation builds the case at representation sizes and checks
// RepresentationEquivalence. The wide shapes (sparsewide, gaussian) go to
// RepMaxTrans so the auto policy's mixed dense/compressed containers are
// genuinely exercised; the other shapes run at invariant sizes.
func RunRepresentation(c Case) error {
	if c.MaxTrans == 0 {
		if c.Shape.wide() {
			c.MaxTrans = RepMaxTrans
		} else {
			c.MaxTrans = InvariantMaxTrans
		}
	}
	if c.MaxItems == 0 {
		if c.Shape.wide() {
			c.MaxItems = RepMaxItems
		} else {
			c.MaxItems = InvariantMaxItems
		}
	}
	db, opts := c.Build()
	if err := RepresentationEquivalence(db, opts); err != nil {
		return fmt.Errorf("crosscheck: %v: %w", c, err)
	}
	return nil
}

// shardEps tolerates the accumulated-rounding disagreement between sharded
// and unsharded tails: the per-shard PMF fold sums the same products as the
// single-vector DP in a different association, so per-itemset
// probabilities must agree to far better than this, and only itemsets
// within the band of the threshold may appear on one side only.
const shardEps = 1e-6

// RepresentationEquivalence asserts the execution-representation contract
// of DESIGN §13: forcing dense or compressed tidsets — at any parallelism,
// in any mixture — yields byte-identical results and scheduling-independent
// stats.
func RepresentationEquivalence(db *uncertain.DB, opts core.Options) error {
	den := opts
	den.Tidsets = core.TidsetsDense
	base, err := core.Mine(db, den)
	if err != nil {
		return fmt.Errorf("mine dense: %w", err)
	}
	for _, k := range []struct {
		name   string
		modify func(*core.Options)
	}{
		{"compressed", func(o *core.Options) { o.Tidsets = core.TidsetsCompressed }},
		{"compressed/parallel4", func(o *core.Options) { o.Tidsets = core.TidsetsCompressed; o.Parallelism = 4 }},
		{"dense/parallel4", func(o *core.Options) { o.Tidsets = core.TidsetsDense; o.Parallelism = 4 }},
		{"auto", func(o *core.Options) { o.Tidsets = core.TidsetsAuto }},
	} {
		alt := opts
		k.modify(&alt)
		res, err := core.Mine(db, alt)
		if err != nil {
			return fmt.Errorf("mine %s: %w", k.name, err)
		}
		if !sameResults(res.Itemsets, base.Itemsets) {
			return fmt.Errorf("representation equivalence violated: %s run differs from dense serial (%d vs %d itemsets)",
				k.name, len(res.Itemsets), len(base.Itemsets))
		}
		if a, b := schedIndependent(res.Stats), schedIndependent(base.Stats); a != b {
			return fmt.Errorf("representation equivalence violated: %s stats %+v differ from dense %+v", k.name, a, b)
		}
	}
	return nil
}

// shardConsistent compares an unsharded result set a with a sharded one b:
// shared itemsets must agree on Pr_FC and Pr_F within shardEps, and an
// itemset accepted on one side only must sit within shardEps of the
// threshold.
func shardConsistent(a, b []core.ResultItem, pfct float64) error {
	am := make(map[string]core.ResultItem, len(a))
	for _, ri := range a {
		am[ri.Items.Key()] = ri
	}
	bm := make(map[string]core.ResultItem, len(b))
	for _, ri := range b {
		bm[ri.Items.Key()] = ri
	}
	for key, ri := range am {
		rj, ok := bm[key]
		if !ok {
			if ri.Prob > pfct+shardEps {
				return fmt.Errorf("itemset %v accepted only unsharded with Pr_FC=%.12g, pfct=%g", ri.Items, ri.Prob, pfct)
			}
			continue
		}
		if d := ri.Prob - rj.Prob; d > shardEps || d < -shardEps {
			return fmt.Errorf("itemset %v: Pr_FC %.12g (unsharded) vs %.12g (sharded)", ri.Items, ri.Prob, rj.Prob)
		}
		if d := ri.FreqProb - rj.FreqProb; d > shardEps || d < -shardEps {
			return fmt.Errorf("itemset %v: Pr_F %.12g (unsharded) vs %.12g (sharded)", ri.Items, ri.FreqProb, rj.FreqProb)
		}
	}
	for key, rj := range bm {
		if _, ok := am[key]; !ok && rj.Prob > pfct+shardEps {
			return fmt.Errorf("itemset %v accepted only sharded with Pr_FC=%.12g, pfct=%g", rj.Items, rj.Prob, pfct)
		}
	}
	return nil
}

// wellFormed checks the per-result invariants every mining run must
// satisfy: lexicographic order without duplicates, probabilities in [0,1],
// the Lemma 4.4 sandwich Lower ≤ Prob ≤ Upper, Pr_FC ≤ Pr_F, and strict
// threshold acceptance.
func wellFormed(res *core.Result) error {
	for i, ri := range res.Itemsets {
		if i > 0 && itemset.Compare(res.Itemsets[i-1].Items, ri.Items) >= 0 {
			return fmt.Errorf("result not strictly lex-sorted at %d: %v then %v", i, res.Itemsets[i-1].Items, ri.Items)
		}
		if ri.Lower < 0 || ri.Upper > 1 || ri.Lower > ri.Prob || ri.Prob > ri.Upper {
			return fmt.Errorf("itemset %v: sandwich violated: Lower=%.12g Prob=%.12g Upper=%.12g (method=%v)",
				ri.Items, ri.Lower, ri.Prob, ri.Upper, ri.Method)
		}
		if ri.Prob > ri.FreqProb+tieEps {
			return fmt.Errorf("itemset %v: Pr_FC=%.12g exceeds Pr_F=%.12g", ri.Items, ri.Prob, ri.FreqProb)
		}
		if ri.Prob <= res.Options.PFCT {
			return fmt.Errorf("itemset %v: accepted with Pr_FC=%.12g ≤ pfct=%g", ri.Items, ri.Prob, res.Options.PFCT)
		}
	}
	return nil
}

// schedIndependent zeroes the scheduling-dependent Stats fields (and folds
// the memo hit/miss split into its invariant sum) so runs at different
// parallelism compare equal.
func schedIndependent(s core.Stats) core.Stats {
	s.TasksSpawned, s.TasksStolen = 0, 0
	s.TailEvaluations, s.TailMemoHits = s.TailEvaluations+s.TailMemoHits, 0
	return s
}

func keySet(items []core.ResultItem) map[string]bool {
	out := make(map[string]bool, len(items))
	for _, ri := range items {
		out[ri.Items.Key()] = true
	}
	return out
}

// sameResults is byte-identity over result slices, with the one concession
// that a nil and an empty slice are the same empty result.
func sameResults(a, b []core.ResultItem) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || reflect.DeepEqual(a, b)
}

func sameKeys(a, b []core.ResultItem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Items.Key() != b[i].Items.Key() {
			return false
		}
	}
	return true
}

// ShardEquivalence asserts the shard-composability contract of DESIGN §14:
// Shards = 1 reproduces the unsharded run byte-for-byte; for N ∈ {2, 4} the
// inline sharded path and the delegated path — a shard.Client session
// against an httptest-served shard.Worker, the production RPC transport —
// are byte-identical to each other, every sharded result is well-formed,
// and the sharded results agree with the single-node run within shardEps.
func ShardEquivalence(db *uncertain.DB, opts core.Options) error {
	base, err := core.Mine(db, opts)
	if err != nil {
		return fmt.Errorf("mine unsharded: %w", err)
	}
	one := opts
	one.Shards = 1
	resOne, err := core.Mine(db, one)
	if err != nil {
		return fmt.Errorf("mine shards=1: %w", err)
	}
	if !sameResults(resOne.Itemsets, base.Itemsets) {
		return fmt.Errorf("shard equivalence violated: shards=1 differs from unsharded (%d vs %d itemsets)",
			len(resOne.Itemsets), len(base.Itemsets))
	}
	if a, b := schedIndependent(resOne.Stats), schedIndependent(base.Stats); a != b {
		return fmt.Errorf("shard equivalence violated: shards=1 stats %+v differ from unsharded %+v", a, b)
	}
	srv := httptest.NewServer(shard.NewWorker(slog.New(slog.NewTextHandler(io.Discard, nil))))
	defer srv.Close()
	client, err := shard.NewClient([]string{srv.URL}, 0, nil)
	if err != nil {
		return fmt.Errorf("shard client: %w", err)
	}
	for _, n := range []int{2, 4} {
		sh := opts
		sh.Shards = n
		inline, err := core.Mine(db, sh)
		if err != nil {
			return fmt.Errorf("mine shards=%d: %w", n, err)
		}
		if err := wellFormed(inline); err != nil {
			return fmt.Errorf("shards=%d: %w", n, err)
		}
		viaRPC, err := mineViaWorker(client, db, sh)
		if err != nil {
			return fmt.Errorf("mine shards=%d via worker: %w", n, err)
		}
		if !sameResults(inline.Itemsets, viaRPC.Itemsets) {
			return fmt.Errorf("shard equivalence violated: shards=%d worker run differs from inline (%d vs %d itemsets)",
				n, len(viaRPC.Itemsets), len(inline.Itemsets))
		}
		if a, b := schedIndependent(viaRPC.Stats), schedIndependent(inline.Stats); a != b {
			return fmt.Errorf("shard equivalence violated: shards=%d worker stats %+v differ from inline %+v", n, a, b)
		}
		if err := shardConsistent(base.Itemsets, inline.Itemsets, opts.PFCT); err != nil {
			return fmt.Errorf("unsharded vs shards=%d: %w", n, err)
		}
	}
	return nil
}

// mineViaWorker places db at opts.Shards on the client's workers and mines
// with the resulting session as the shard kernel. A failed shard RPC makes
// the miner fall back to its inline arithmetic, which would hide the RPC
// path from the comparison, so any failure the session reports is an error.
func mineViaWorker(client *shard.Client, db *uncertain.DB, opts core.Options) (*core.Result, error) {
	ctx, fail := context.WithCancelCause(context.Background())
	defer fail(nil)
	dataset := fmt.Sprintf("crosscheck-%d", opts.Shards)
	if err := client.Place(ctx, dataset, db, opts.Shards); err != nil {
		return nil, err
	}
	sess, err := client.Kernel(ctx, fail, dataset)
	if err != nil {
		return nil, err
	}
	opts.ShardKernel = sess
	res, err := core.Mine(db, opts)
	if err != nil {
		return nil, err
	}
	if cause := context.Cause(ctx); cause != nil {
		return nil, fmt.Errorf("shard RPC failed: %w", cause)
	}
	return res, nil
}

// StreamEquivalence asserts the delta-engine contract of DESIGN §15: across
// a random push sequence through a bounded window (sized so evictions
// genuinely occur), every incremental mining round must be byte-identical —
// itemsets, probabilities, bounds, methods — to a from-scratch core.Mine of
// the window snapshot, and the per-round diff must account for every
// result. The push schedule is derived from opts.Seed, so (shape, seed)
// reproduces the whole sequence.
func StreamEquivalence(db *uncertain.DB, opts core.Options) error {
	opts.Search = core.DFS // incremental rounds force the serial DFS path
	trans := db.Transactions()
	size := len(trans) / 2
	if size < 2 {
		size = 2
	}
	w, err := stream.NewWindow(size)
	if err != nil {
		return fmt.Errorf("window: %w", err)
	}
	m, err := stream.NewMiner(w, opts)
	if err != nil {
		return fmt.Errorf("miner: %w", err)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var prev *core.Result
	for i := 0; i < len(trans); {
		for b := 1 + rng.Intn(3); b > 0 && i < len(trans); b-- {
			if err := m.Push(trans[i]); err != nil {
				return fmt.Errorf("push %d: %w", i, err)
			}
			i++
		}
		if w.Len() < opts.MinSup {
			continue // snapshot too small for this round's threshold
		}
		res, diff, err := m.MineContext(context.Background())
		if err != nil {
			return fmt.Errorf("incremental mine after %d pushes: %w", i, err)
		}
		snap, err := w.Snapshot()
		if err != nil {
			return fmt.Errorf("snapshot after %d pushes: %w", i, err)
		}
		full, err := core.Mine(snap, opts)
		if err != nil {
			return fmt.Errorf("from-scratch mine after %d pushes: %w", i, err)
		}
		if !reflect.DeepEqual(res.Itemsets, full.Itemsets) {
			return fmt.Errorf("stream equivalence violated after %d pushes: delta-mined %d itemsets, from-scratch %d (or values differ)",
				i, len(res.Itemsets), len(full.Itemsets))
		}
		if err := wellFormed(res); err != nil {
			return fmt.Errorf("after %d pushes: %w", i, err)
		}
		if got := len(diff.Added) + len(diff.Changed) + diff.Unchanged; got != len(res.Itemsets) {
			return fmt.Errorf("after %d pushes: diff accounts for %d itemsets, result has %d", i, got, len(res.Itemsets))
		}
		if prev == nil && (len(diff.Removed) != 0 || len(diff.Changed) != 0 || diff.Unchanged != 0) {
			return fmt.Errorf("first round diff must be all-added: +%d -%d ~%d =%d",
				len(diff.Added), len(diff.Removed), len(diff.Changed), diff.Unchanged)
		}
		prev = res
	}
	if prev == nil {
		return nil // threshold above everything the window ever held
	}
	// One final no-change round: full splice, empty diff.
	res, diff, err := m.MineContext(context.Background())
	if err != nil {
		return fmt.Errorf("no-change round: %w", err)
	}
	if !diff.Empty() || diff.Unchanged != len(prev.Itemsets) {
		return fmt.Errorf("no-change round diff not empty: +%d -%d ~%d =%d (want =%d)",
			len(diff.Added), len(diff.Removed), len(diff.Changed), diff.Unchanged, len(prev.Itemsets))
	}
	if res.Stats.NodesVisited != 0 {
		return fmt.Errorf("no-change round visited %d nodes, want full reuse", res.Stats.NodesVisited)
	}
	return nil
}

// RunStreamEquivalence builds the case at invariant sizes (oracle-free, so
// the window can slide through a few dozen transactions) and checks
// StreamEquivalence.
func RunStreamEquivalence(c Case) error {
	if c.MaxTrans == 0 {
		c.MaxTrans = InvariantMaxTrans
	}
	if c.MaxItems == 0 {
		c.MaxItems = InvariantMaxItems
	}
	db, opts := c.Build()
	if err := StreamEquivalence(db, opts); err != nil {
		return fmt.Errorf("crosscheck: %v: %w", c, err)
	}
	return nil
}

// RunShardEquivalence builds the case at invariant sizes (large enough to
// make every shard non-trivial) and checks ShardEquivalence.
func RunShardEquivalence(c Case) error {
	if c.MaxTrans == 0 {
		c.MaxTrans = InvariantMaxTrans
	}
	if c.MaxItems == 0 {
		c.MaxItems = InvariantMaxItems
	}
	db, opts := c.Build()
	if err := ShardEquivalence(db, opts); err != nil {
		return fmt.Errorf("crosscheck: %v: %w", c, err)
	}
	return nil
}
