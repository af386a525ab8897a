// Package pfcim discovers threshold-based probabilistic frequent closed
// itemsets over uncertain (probabilistic) transaction data, implementing
// the MPFCI algorithm of Tong, Chen & Ding (ICDE 2012) together with the
// substrates its evaluation depends on: exact frequent/closed itemset
// miners, a probabilistic frequent itemset miner, possible-world oracles,
// and synthetic uncertain-data generators.
//
// # Model
//
// A Database is a set of transactions under the tuple-uncertainty model:
// transaction i carries an itemset and an existence probability p_i, and
// transactions exist independently. The database thus induces a
// distribution over exponentially many possible worlds, each an ordinary
// exact database. An itemset X is a probabilistic frequent closed itemset
// when the total probability of the worlds in which X is a frequent closed
// itemset — its frequent closed probability Pr_FC(X) — exceeds a
// user-supplied threshold pfct. Computing Pr_FC(X) is #P-hard, so the
// miner combines exact dynamic programming, analytic probability bounds
// and an FPRAS Monte-Carlo estimator.
//
// # Quick start
//
//	db := pfcim.MustNewDatabase([]pfcim.Transaction{
//		{Items: pfcim.NewItemset(0, 1, 2), Prob: 0.9},
//		{Items: pfcim.NewItemset(0, 1), Prob: 0.6},
//	})
//	res, err := pfcim.Mine(db, pfcim.Options{MinSup: 1, PFCT: 0.5})
//	for _, r := range res.Itemsets {
//		fmt.Println(r.Items, r.Prob)
//	}
//
// # Context-first convention
//
// Every mining entry point that can run long has a context-first form —
// MineContext, MineTopKContext, MineSweep — that aborts with ctx.Err() at
// the next enumeration-tree node once ctx is done. The context-free names
// (Mine, MineTopK) are thin wrappers over their context-first counterparts
// with context.Background(), kept for convenience; new code that may need
// cancellation or deadlines should call the context-first forms directly.
//
// # Parameter sweeps
//
// Threshold tuning rarely needs one mining run: it needs a grid. MineSweep
// mines one database at many (MinSup, PFCT, Epsilon, Delta) operating
// points while running only one full enumeration per MinSup group — points
// differing only in pfct are derived from the loosest run by bound-aware
// filtering, byte-identical to independent Mine calls at those points (see
// DESIGN §10).
//
// # Options validation
//
// All option structs (Options, FrequentOptions, RuleOptions) validate the
// same way: a Canonical method checks ranges, applies the defaults the
// miner would, and clears execution-only knobs, so equal canonical forms
// guarantee identical result sets. Mining entry points reject invalid
// options with an error naming the offending field.
//
// See the examples directory for complete programs and DESIGN.md for the
// algorithm inventory.
package pfcim

import (
	"context"
	"io"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/exact"
	"github.com/probdata/pfcim/internal/gen"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/obs"
	"github.com/probdata/pfcim/internal/pfim"
	"github.com/probdata/pfcim/internal/rules"
	"github.com/probdata/pfcim/internal/stream"
	"github.com/probdata/pfcim/internal/sweep"
	"github.com/probdata/pfcim/internal/uncertain"
	"github.com/probdata/pfcim/internal/world"
)

// Item identifies a distinct item.
type Item = itemset.Item

// Itemset is a sorted, duplicate-free set of items.
type Itemset = itemset.Itemset

// NewItemset builds an itemset from item ids (any order, duplicates
// removed).
func NewItemset(items ...int) Itemset { return itemset.FromInts(items...) }

// Transaction is one uncertain tuple: an itemset plus its existence
// probability in (0, 1].
type Transaction = uncertain.Transaction

// Database is an uncertain transaction database under tuple uncertainty.
type Database = uncertain.DB

// DatabaseStats summarizes a database (size, item count, lengths).
type DatabaseStats = uncertain.Stats

// NewDatabase validates and builds a Database.
func NewDatabase(trans []Transaction) (*Database, error) { return uncertain.NewDB(trans) }

// MustNewDatabase is NewDatabase that panics on invalid input.
func MustNewDatabase(trans []Transaction) *Database { return uncertain.MustNewDB(trans) }

// ReadDatabase parses the text interchange format: one transaction per
// line, "item item … : probability"; a missing probability means 1.
func ReadDatabase(r io.Reader) (*Database, error) { return uncertain.Read(r) }

// WriteDatabase serializes a Database in the text interchange format.
func WriteDatabase(w io.Writer, db *Database) error { return uncertain.Write(w, db) }

// Options configures a mining run. MinSup (absolute) and PFCT are
// required; see AbsoluteMinSup to convert a relative threshold.
type Options = core.Options

// Search selects the DFS (default) or BFS enumeration framework.
type Search = core.Search

// Enumeration frameworks.
const (
	DFS = core.DFS
	BFS = core.BFS
)

// Result is a mining outcome: the probabilistic frequent closed itemsets
// plus pruning statistics.
type Result = core.Result

// ResultItem is one mined itemset with its (estimated) frequent closed
// probability and bounds.
type ResultItem = core.ResultItem

// MineStats counts the work each pruning rule saved during a run.
type MineStats = core.Stats

// Tracer records phase-level wall-time spans during a mining run without
// perturbing its result: set Options.Tracer to a NewTracer() value and read
// Result.Profile (or Tracer.Profile) afterwards. Unlike the Trace log
// writer, a Tracer composes with Parallelism — each pool worker records
// into its own lock-free ring. Export the detailed spans with
// Tracer.WriteChromeTrace for chrome://tracing / Perfetto.
type Tracer = obs.Tracer

// Profile is the merged wall-time attribution of a traced run: per-phase
// totals (candidates, expand, bound-check, exact-union, sampling),
// per-depth expansion cost, and per-worker busy time.
type Profile = obs.Profile

// NewTracer returns a Tracer with the default per-worker span-ring
// capacity.
func NewTracer() *Tracer { return obs.New() }

// OptionsJSON is the wire (JSON) form of Options: every field except the
// Trace writer, with the search framework as a string. The zero value of
// each field means "use the default", so a client needs to send only
// min_sup and pfct. Convert with Options.JSON and OptionsJSON.Options.
type OptionsJSON = core.OptionsJSON

// ResultJSON is the wire (JSON) form of a mining Result, produced by
// Result.JSON; itemsets appear in lexicographic order, so the form is
// deterministic per (database, canonical options).
type ResultJSON = core.ResultJSON

// ResultItemJSON is the wire form of one mined itemset.
type ResultItemJSON = core.ResultItemJSON

// CanonicalOptions validates o, applies the defaults Mine would, and clears
// every field that cannot change the mined result (Trace, Tracer and the
// execution knobs Parallelism, Tidsets, ShardKernel). Two option structs
// with equal canonical forms produce byte-identical result sets.
func CanonicalOptions(o Options) (Options, error) { return o.Canonical() }

// OptionsKey renders the canonical form of o as a deterministic string.
// Because mining is deterministic per (database, canonical options) — see
// DESIGN §8.3 — (dataset content hash, OptionsKey) is a sound cache key
// for mining results; pfcimd's result cache uses exactly that.
func OptionsKey(o Options) (string, error) { return o.CanonicalKey() }

// MineContext runs the MPFCI miner (or the variant selected by opts) and
// returns every probabilistic frequent closed itemset of db; once ctx is
// done the run aborts with ctx.Err() at the next enumeration-tree node.
func MineContext(ctx context.Context, db *Database, opts Options) (*Result, error) {
	return core.MineContext(ctx, db, opts)
}

// Mine is MineContext with context.Background().
func Mine(db *Database, opts Options) (*Result, error) {
	return MineContext(context.Background(), db, opts)
}

// MineTopKContext returns the k itemsets with the highest frequent closed
// probability at the given minimum support; no pfct is needed — the
// acceptance threshold rises to the running k-th best, so the pruning
// machinery keeps working. Results are sorted by descending probability.
// Once ctx is done the run aborts with ctx.Err(). Top-k always runs the
// serial depth-first search, so opts.Parallelism and opts.Search are
// ignored; opts.Trace and opts.Tracer apply as they do to Mine.
func MineTopKContext(ctx context.Context, db *Database, minSup, k int, opts Options) ([]ResultItem, error) {
	return core.MineTopKContext(ctx, db, minSup, k, opts)
}

// MineTopK is MineTopKContext with context.Background().
func MineTopK(db *Database, minSup, k int, opts Options) ([]ResultItem, error) {
	return MineTopKContext(context.Background(), db, minSup, k, opts)
}

// SweepPoint is one grid point of a parameter sweep; zero-valued fields
// inherit from the sweep's base Options.
type SweepPoint = sweep.Point

// SweepPointResult is the mining outcome at one grid point.
type SweepPointResult = sweep.PointResult

// SweepResult is a full sweep outcome: one SweepPointResult per requested
// point, in request order, plus engine statistics.
type SweepResult = sweep.Result

// SweepStats summarizes the sweep engine's work — in particular
// FullEnumerations, the number of full mining runs the grid cost.
type SweepStats = sweep.Stats

// MineSweep mines db at every grid point, sharing computation across
// points: one full enumeration per group of points that differ only in
// pfct, with tighter points derived by bound-aware filtering. Each point's
// Itemsets are byte-identical to what MineContext at that point's options
// would return (DESIGN §10).
func MineSweep(ctx context.Context, db *Database, points []SweepPoint, opts Options) (*SweepResult, error) {
	return sweep.Mine(ctx, db, points, opts)
}

// MineNaive is the baseline that first enumerates all probabilistic
// frequent itemsets and then estimates each one's frequent closed
// probability with the Monte-Carlo sampler, with no bounding or pruning.
func MineNaive(db *Database, opts Options) (*Result, error) { return core.NaiveMine(db, opts) }

// AbsoluteMinSup converts a relative minimum support (fraction of the
// database size) into the absolute count Options.MinSup expects.
func AbsoluteMinSup(n int, rel float64) int { return core.AbsoluteMinSup(n, rel) }

// FrequentItemset is a probabilistic frequent itemset (Definition 3.5 of
// the paper) with its exact frequent probability.
type FrequentItemset = pfim.Itemset

// FrequentOptions configures MineFrequent. Like Options it validates and
// defaults through a Canonical method; the MineFrequent family rejects
// invalid thresholds with an error.
type FrequentOptions = pfim.Options

// CanonicalFrequentOptions validates o, applies the defaults MineFrequent
// would, and clears the execution-only DisableCH knob — the FrequentOptions
// counterpart of CanonicalOptions.
func CanonicalFrequentOptions(o FrequentOptions) (FrequentOptions, error) { return o.Canonical() }

// validFrequent validates opts for the MineFrequent family, keeping the
// execution knobs (DisableCH) Canonical would clear.
func validFrequent(opts FrequentOptions) (FrequentOptions, error) {
	c, err := opts.Canonical()
	if err != nil {
		return opts, err
	}
	opts.MinSup = c.MinSup
	return opts, nil
}

// MineFrequent returns every probabilistic frequent itemset of db: the
// itemsets X with Pr{sup(X) ≥ MinSup} > PFT.
func MineFrequent(db *Database, opts FrequentOptions) ([]FrequentItemset, error) {
	opts, err := validFrequent(opts)
	if err != nil {
		return nil, err
	}
	return pfim.Mine(db, opts), nil
}

// MineExpectedSupport returns all itemsets whose expected support reaches
// minExpSup — the expected-support uncertainty model (U-Apriori).
func MineExpectedSupport(db *Database, minExpSup float64) []FrequentItemset {
	return pfim.ExpectedSupportMine(db, minExpSup)
}

// MaximalFrequent returns only the maximal probabilistic frequent itemsets:
// the border of the set MineFrequent returns.
func MaximalFrequent(db *Database, opts FrequentOptions) ([]Itemset, error) {
	opts, err := validFrequent(opts)
	if err != nil {
		return nil, err
	}
	return pfim.MaximalFrequent(db, opts), nil
}

// ItemDatabase is an uncertain database under *attribute-level*
// uncertainty: each item of each transaction exists with its own
// probability, independently — the native model of the expected-support
// literature (U-Apriori, UF-growth).
type ItemDatabase = uncertain.ItemDB

// ItemTransaction is one transaction with individually uncertain items.
type ItemTransaction = uncertain.ItemTransaction

// ProbItem is an item occurrence with its existence probability.
type ProbItem = uncertain.ProbItem

// NewItemDatabase validates and builds an attribute-level uncertain
// database.
func NewItemDatabase(trans []ItemTransaction) (*ItemDatabase, error) {
	return uncertain.NewItemDB(trans)
}

// MineExpectedSupportItems mines all itemsets whose expected support in
// the attribute-level model reaches minExpSup.
func MineExpectedSupportItems(db *ItemDatabase, minExpSup float64) []FrequentItemset {
	return pfim.ItemLevelExpectedSupportMine(db, minExpSup)
}

// MineFrequentItems mines all probabilistic frequent itemsets of the
// attribute-level model.
func MineFrequentItems(db *ItemDatabase, opts FrequentOptions) ([]FrequentItemset, error) {
	opts, err := validFrequent(opts)
	if err != nil {
		return nil, err
	}
	return pfim.ItemLevelMine(db, opts), nil
}

// ProbabilisticSupport returns max{s : Pr[sup(X) ≥ s] ≥ pft} — the
// competing "probabilistic support" definition of related work, provided
// for comparison with the frequent-closed-probability semantics this
// library mines (see the package tests for the instability the paper's
// §II describes).
func ProbabilisticSupport(db *Database, x Itemset, pft float64) int {
	return pfim.ProbabilisticSupport(db, x, pft)
}

// ProbSupportItemset is one result of the probabilistic-support model.
type ProbSupportItemset = pfim.ProbSupportItemset

// MineProbSupportClosed mines the "probabilistic frequent closed itemsets"
// of the competing probabilistic-support definition: psup(X) ≥ minSup and
// every proper superset has strictly smaller psup. Provided to reproduce
// the semantic comparison of the paper's §II.
func MineProbSupportClosed(db *Database, minSup int, pft float64) []ProbSupportItemset {
	return pfim.MineProbSupportClosed(db, minSup, pft)
}

// PaperExampleExtended returns the paper's Table IV database: the running
// example plus two low-probability tuples, used to contrast the competing
// probabilistic-support semantics with this library's.
func PaperExampleExtended() *Database { return uncertain.PaperExampleExtended() }

// WorldSampler estimates frequent closed probabilities by direct
// possible-world simulation — the paper's naïve sampling baseline. Unlike
// the Karp–Luby estimator inside Mine, it has no a-priori accuracy bound
// tied to the estimated quantity, but it is simple, unbiased, and useful
// for cross-checking.
type WorldSampler = core.WorldSampler

// NewWorldSampler prepares a world-simulation estimator over db.
func NewWorldSampler(db *Database, seed int64) *WorldSampler {
	return core.NewWorldSampler(db, seed)
}

// ExactDataset is an ordinary (certain) transaction database.
type ExactDataset = exact.Dataset

// ExactPattern is a mined itemset with its exact support.
type ExactPattern = exact.Pattern

// ExactData strips probabilities from an uncertain database.
func ExactData(db *Database) ExactDataset { return exact.FromUncertain(db) }

// MineFrequentExact mines all frequent itemsets of exact data (FP-growth).
func MineFrequentExact(d ExactDataset, minSup int) []ExactPattern {
	return exact.FPGrowth(d, minSup)
}

// MineClosedExact mines all frequent closed itemsets of exact data.
func MineClosedExact(d ExactDataset, minSup int) []ExactPattern {
	return exact.MineClosed(d, minSup)
}

// FreqProb returns the exact frequent probability Pr_F(X) by possible-world
// enumeration; db must have at most 26 transactions. Intended for
// validation and small examples; the miner itself uses dynamic programming.
func FreqProb(db *Database, x Itemset, minSup int) (float64, error) {
	return world.FreqProb(db, x, minSup)
}

// FreqClosedProb returns the exact frequent closed probability Pr_FC(X) by
// possible-world enumeration; db must have at most 26 transactions.
func FreqClosedProb(db *Database, x Itemset, minSup int) (float64, error) {
	return world.FreqClosedProb(db, x, minSup)
}

// ExactFreqClosedProb computes Pr_FC(x) exactly by inclusion–exclusion over
// x's extension events. Unlike FreqClosedProb it scales to databases of any
// size, but requires x to have at most 20 non-trivial extension events.
func ExactFreqClosedProb(db *Database, x Itemset, minSup int) (float64, error) {
	return core.ExactFCP(db, x, minSup)
}

// EstimateFreqClosedProb runs the ApproxFCP Monte-Carlo estimator on a
// single itemset: an (ε, δ)-approximation of Pr_FC(x) in fully polynomial
// time (the paper's Fig. 2).
func EstimateFreqClosedProb(db *Database, x Itemset, minSup int, eps, delta float64, seed int64) (float64, error) {
	return core.EstimateFCP(db, x, minSup, eps, delta, seed)
}

// CountFrequent returns the number of probabilistic frequent itemsets
// without materializing them; analytic tail bounds settle most membership
// decisions without the exact dynamic program. The count is exact.
func CountFrequent(db *Database, opts FrequentOptions) (int, error) {
	opts, err := validFrequent(opts)
	if err != nil {
		return 0, err
	}
	return pfim.Count(db, opts), nil
}

// PaperExample returns the uncertain database of the paper's Table II — the
// running example used throughout the documentation and tests.
func PaperExample() *Database { return uncertain.PaperExample() }

// Window maintains a live view over an uncertain transaction stream:
// bounded (the most recent size transactions, NewWindow) or unbounded
// (append-only history, NewUnboundedWindow). Expected supports are
// maintained incrementally; per-item frequent-probability tails can be
// maintained too (TrackTails), making FrequentItemsContext O(1) per item.
type Window = stream.Window

// StreamItem is one probabilistically frequent item of a window query.
type StreamItem = stream.ItemResult

// StreamOptions configures a Window frequent-items query; it is
// validated through the same Canonical() convention as Options.
type StreamOptions = stream.Options

// NewWindow creates a sliding window over the most recent size
// transactions.
func NewWindow(size int) (*Window, error) { return stream.NewWindow(size) }

// NewUnboundedWindow creates an append-only window that never evicts — the
// shape of a versioned dataset lineage that only ever grows.
func NewUnboundedWindow() *Window { return stream.NewUnboundedWindow() }

// WindowMiner mines probabilistic frequent closed itemsets incrementally
// over a live Window: each mining round re-evaluates only the enumeration
// subtrees touched by transactions pushed (or evicted) since the previous
// round and splices everything else from the recorded previous round, with
// results byte-identical to a from-scratch Mine of the window snapshot.
type WindowMiner = stream.Miner

// StreamDiff is the change set between two consecutive WindowMiner rounds:
// closed itemsets added, removed, changed (any reported number differs),
// and the count left untouched.
type StreamDiff = stream.Diff

// NewWindowMiner wraps a window for incremental mining. Options are
// validated eagerly; BFS search is rejected (incremental rounds force the
// serial DFS path, an execution detail that never changes results).
func NewWindowMiner(w *Window, opts Options) (*WindowMiner, error) {
	return stream.NewMiner(w, opts)
}

// MineWindowContext runs one incremental mining round over the miner's
// window, returning the full (byte-identical to from-scratch) result and
// the diff against the previous round. It is the context-first form per
// the package convention; cancellation aborts at the next enumeration node
// and resets the miner's reuse state, so the next round mines from
// scratch.
func MineWindowContext(ctx context.Context, m *WindowMiner) (*Result, StreamDiff, error) {
	return m.MineContext(ctx)
}

// Rule is an association rule derived from mined itemsets.
type Rule = rules.Rule

// RuleOptions bounds rule generation.
type RuleOptions = rules.Options

// GenerateRules derives association rules from source itemsets (typically
// a mining result's itemsets), filtered by expected confidence.
func GenerateRules(db *Database, sources []Itemset, opts RuleOptions) ([]Rule, error) {
	return rules.Generate(db, sources, opts)
}

// RuleConfidenceProb estimates Pr[conf(X ⇒ Y) ≥ minConf] across possible
// worlds by sampling n worlds.
func RuleConfidenceProb(db *Database, x, y Itemset, minConf float64, n int, seed int64) (float64, error) {
	return rules.ConfidenceProb(db, x, y, minConf, n, seed)
}

// GenerateQuest produces an exact dataset with the IBM-Quest synthetic
// generator; see gen.QuestConfig for the parameters.
func GenerateQuest(cfg QuestConfig) []Itemset { return gen.Quest(cfg) }

// QuestConfig parameterizes GenerateQuest.
type QuestConfig = gen.QuestConfig

// QuestT20I10D30KP40 returns the configuration of the paper's synthetic
// dataset, optionally scaled down.
func QuestT20I10D30KP40(scale float64, seed int64) QuestConfig {
	return gen.QuestT20I10D30KP40(scale, seed)
}

// QuestT10I4D1MP2K returns the sparse million-transaction stress
// configuration (2000 items, average transaction length 10), optionally
// scaled down.
func QuestT10I4D1MP2K(scale float64, seed int64) QuestConfig {
	return gen.QuestT10I4D1MP2K(scale, seed)
}

// GenerateMushroomLike produces a dense categorical dataset with the
// structural properties of the UCI Mushroom dataset (scale 1 ≈ 8124
// transactions of length 23 over ≈119 items).
func GenerateMushroomLike(scale float64, seed int64) []Itemset {
	return gen.MushroomLike(scale, seed)
}

// AssignGaussian attaches Gaussian-distributed existence probabilities
// (clamped into (0,1]) to exact transactions, producing an uncertain
// database — the paper's uncertainty-injection method.
func AssignGaussian(data []Itemset, mean, variance float64, seed int64) *Database {
	return gen.AssignGaussian(data, mean, variance, seed)
}
