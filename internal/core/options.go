// Package core implements MPFCI, the paper's depth-first
// Bounding–Pruning–Checking miner for probabilistic threshold-based
// frequent closed itemsets, together with the breadth-first variant and the
// ablation switches of Table VII.
package core

import (
	"fmt"
	"io"

	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/obs"
	"github.com/probdata/pfcim/internal/shard"
)

// Search selects the enumeration framework (Table VII's last column).
type Search int

const (
	// DFS is the depth-first ProbFC enumeration of Fig. 3.
	DFS Search = iota
	// BFS is the level-wise MPFCI-BFS variant. It cannot apply superset or
	// subset pruning (those conditions never arise in level-wise
	// enumeration), matching the paper's experimental setup.
	BFS
)

func (s Search) String() string {
	if s == BFS {
		return "BFS"
	}
	return "DFS"
}

// TidsetMode selects the tidset representation a run works on.
type TidsetMode int

const (
	// TidsetsAuto keeps each per-item tidset in the representation the
	// index chose by density (bitset.ShouldCompact): compressed sorted-id
	// lists for rare items on large databases, dense words otherwise.
	TidsetsAuto TidsetMode = iota
	// TidsetsDense forces every tidset to dense words.
	TidsetsDense
	// TidsetsCompressed forces every tidset to the compressed form.
	TidsetsCompressed
)

func (t TidsetMode) String() string {
	switch t {
	case TidsetsDense:
		return "dense"
	case TidsetsCompressed:
		return "compressed"
	}
	return "auto"
}

// ShardKernel abstracts where per-shard tail PMFs are computed when
// Options.Shards ≥ 2. The miner asks the kernel for all N per-shard PMFs of
// a batch of at most batchChunk tails at once — candidate items, or the
// siblings of one intersection chunk — and the kernel returns them in
// query and shard order. The implementation is the shard.Client session,
// which runs poibin.PMFTrunc over each shard's probability slice on the
// shard workers, so delegating never changes results. Clause absence products are not
// delegated: the miner folds them per shard itself (shard.go). Returning
// ok = false declines the call; the miner then computes the tails locally,
// bit-identically. Implementations must be safe for concurrent use by
// parallel miner workers.
type ShardKernel interface {
	// TailPMFs returns out[q][i], query q's truncated-at-k support PMF on
	// shard i.
	TailPMFs(qs []shard.Query, k int) ([][][]float64, bool)
}

// Options configures a mining run. MinSup and PFCT are required; the
// remaining fields have sensible defaults applied by normalize.
type Options struct {
	// MinSup is the absolute minimum support threshold (the paper's
	// min_sup; the experiments quote it as a fraction of |UTD| — use
	// AbsoluteMinSup to convert).
	MinSup int
	// PFCT is the probabilistic frequent closed threshold in (0, 1).
	PFCT float64

	// Epsilon is the relative tolerance error ε of ApproxFCP. Default 0.1.
	Epsilon float64
	// Delta is the failure probability δ of ApproxFCP (the paper's
	// probabilistic confidence degree is 1−δ). Default 0.1.
	Delta float64
	// Seed makes the Monte-Carlo estimator deterministic.
	Seed int64

	// Ablation switches (Table VII). All false = full MPFCI.
	DisableCH       bool // drop Chernoff-Hoeffding bound pruning (MPFCI-NoCH)
	DisableSuperset bool // drop superset pruning, Lemma 4.2 (MPFCI-NoSuper)
	DisableSubset   bool // drop subset pruning, Lemma 4.3 (MPFCI-NoSub)
	DisableBounds   bool // drop Pr_FC bound pruning, Lemma 4.4 (MPFCI-NoBound)

	// Search selects DFS (default) or BFS.
	Search Search

	// MaxExactClauses: when a surviving candidate has at most this many
	// non-trivial clauses, the frequent non-closed probability is computed
	// exactly by inclusion–exclusion instead of sampling. 0 means use the
	// default (6); set negative to always sample. The ablation benchmarks
	// in bench_test.go show the crossover: each of the 2^m inclusion-
	// exclusion terms costs a Poisson-binomial tail over the intersected
	// tidset, so exact checking wins only for small clause systems.
	MaxExactClauses int

	// Parallelism is the number of worker goroutines of the work-stealing
	// scheduler that distributes enumeration subtrees (DFS framework only;
	// BFS ignores it). 0 or 1 runs serially. Results and all
	// scheduling-independent Stats are byte-identical to a serial run:
	// every node derives its Monte-Carlo sampler seed from (Seed, the
	// node's itemset), never from scheduling order.
	Parallelism int

	// Tidsets forces the tidset representation of the run: dense words,
	// compressed sorted-id lists, or (default) the density-driven choice
	// the index already made. Every bitset operation is representation-
	// independent by contract, so results are byte-identical across modes —
	// this is a pure execution knob (cleared by Canonical). It stays because
	// small databases never cross the density threshold for compressed
	// tidsets, so forcing the mode is the only way the crosscheck
	// representation-equivalence suite mines over them.
	Tidsets TidsetMode

	// Shards partitions the transaction space into that many contiguous
	// ranges (shard.Layout) and evaluates every Poisson-binomial tail as
	// per-shard truncated coefficient vectors merged by convolution, and
	// every Lemma 4.4 clause absence product as per-shard partials folded in
	// shard order — the arithmetic the distributed coordinator/worker mode
	// runs over RPC, available in-process so tests and benches need no
	// cluster. 0 or 1 is the unsharded single-node path (bit-for-bit
	// untouched). Values ≥ 2 regroup the IEEE sums the way the convolution
	// tail kernel does, so results agree with unsharded mining within
	// numerical tolerance but are not bitwise equal; Shards is therefore
	// result-affecting and participates in CanonicalKey (the canonical key's
	// shard-layout field). For any fixed N ≥ 2, results are byte-identical
	// between the inline path and the distributed worker path — the
	// equivalence the crosscheck shard suite pins.
	Shards int

	// ShardKernel, when non-nil and Shards ≥ 2, delegates per-shard tail
	// PMFs (the service layer installs the RPC-backed shard.Client session
	// here). The kernel performs the same canonical arithmetic the inline
	// sharded path performs, so installing one never changes results — it
	// is a pure execution knob, cleared by Canonical. A kernel may decline
	// a call (ok = false), in which case the miner computes the tail
	// locally, bit-identically.
	ShardKernel ShardKernel

	// Trace, when non-nil, receives a line-per-event log of the DFS
	// enumeration — node visits, every pruning decision, and every
	// evaluation verdict — the walk-through the paper's Fig. 4 depicts.
	// Tracing forces serial DFS (Parallelism is ignored).
	Trace io.Writer

	// Tracer, when non-nil, records phase-level wall-time spans of the run
	// — candidate construction, per-node DFS expansion (with depth and
	// worker id), and the checking cascade split into bound check, exact
	// inclusion–exclusion, and Monte-Carlo sampling. The aggregated Profile
	// is attached to Result, and Tracer.WriteChromeTrace exports the
	// detailed spans for chrome://tracing. Unlike Trace it composes with
	// parallelism (each worker records into its own lock-free buffer) and
	// never changes results: it only reads the monotonic clock, so output
	// is byte-identical with the tracer on or off (DESIGN §11). Like the
	// other execution knobs it is cleared by Canonical.
	Tracer *obs.Tracer
}

const (
	defaultEpsilon         = 0.1
	defaultDelta           = 0.1
	defaultMaxExactClauses = 6

	// zeroClauseEps: clauses whose probability falls below this are dropped
	// from the union computation and accounted as slack; the slack is
	// orders of magnitude below every ε the estimator supports.
	zeroClauseEps = 1e-15
)

func (o Options) normalize() (Options, error) {
	if o.MinSup < 1 {
		return o, fmt.Errorf("core: MinSup must be ≥ 1, got %d", o.MinSup)
	}
	if o.PFCT <= 0 || o.PFCT >= 1 {
		return o, fmt.Errorf("core: PFCT must be in (0,1), got %v", o.PFCT)
	}
	if o.Epsilon == 0 {
		o.Epsilon = defaultEpsilon
	}
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		return o, fmt.Errorf("core: Epsilon must be in (0,1), got %v", o.Epsilon)
	}
	if o.Delta == 0 {
		o.Delta = defaultDelta
	}
	if o.Delta <= 0 || o.Delta >= 1 {
		return o, fmt.Errorf("core: Delta must be in (0,1), got %v", o.Delta)
	}
	if o.MaxExactClauses == 0 {
		o.MaxExactClauses = defaultMaxExactClauses
	}
	if o.Tidsets < TidsetsAuto || o.Tidsets > TidsetsCompressed {
		return o, fmt.Errorf("core: unknown TidsetMode %d", o.Tidsets)
	}
	if o.Shards < 0 {
		return o, fmt.Errorf("core: Shards must be ≥ 0, got %d", o.Shards)
	}
	if o.Shards == 1 {
		// One shard covers the whole transaction range, which is exactly the
		// unsharded computation; collapse so both spellings share a canonical
		// key and the trivially-bitwise single-node path.
		o.Shards = 0
	}
	return o, nil
}

// AbsoluteMinSup converts a relative support threshold (fraction of the
// database size, as the paper's experiments quote it) to the absolute count
// used by Options.MinSup.
func AbsoluteMinSup(n int, rel float64) int {
	ms := int(rel*float64(n) + 0.5)
	if ms < 1 {
		ms = 1
	}
	return ms
}

// Method records how a result's frequent closed probability was resolved.
type Method int

const (
	// MethodExact means inclusion–exclusion produced the exact value.
	MethodExact Method = iota
	// MethodSampled means the Karp–Luby ApproxFCP estimate was used.
	MethodSampled
	// MethodBoundAccepted means the Lemma 4.4 lower bound already exceeded
	// pfct, so the value reported is the bound midpoint.
	MethodBoundAccepted
	// MethodNoClauses means no extension event had positive probability, so
	// Pr_FC(X) = Pr_F(X) exactly.
	MethodNoClauses
	// MethodBoundRejected means the Lemma 4.4 upper bound already ruled the
	// candidate out, so the value reported is the bound midpoint. Rejected
	// evaluations only surface through traces and ablation tooling — Result
	// holds accepted itemsets only.
	MethodBoundRejected
)

func (m Method) String() string {
	switch m {
	case MethodExact:
		return "exact"
	case MethodSampled:
		return "sampled"
	case MethodBoundAccepted:
		return "bound-accepted"
	case MethodNoClauses:
		return "no-clauses"
	case MethodBoundRejected:
		return "bound-rejected"
	}
	return "unknown"
}

// ResultItem is one probabilistic frequent closed itemset.
type ResultItem struct {
	Items itemset.Itemset
	// Prob is the (estimated) frequent closed probability Pr_FC.
	Prob float64
	// Lower and Upper bracket Pr_FC when bounds were computed; for sampled
	// results they are the analytic Lemma 4.4 sandwich.
	Lower, Upper float64
	// FreqProb is the exact frequent probability Pr_F (an upper bound on
	// Prob by definition).
	FreqProb float64
	Method   Method
}

// Result is the full outcome of a mining run.
type Result struct {
	Itemsets []ResultItem
	Stats    Stats
	Options  Options
	// Profile is the phase-level wall-time attribution of the run; non-nil
	// only when Options.Tracer was set. It is observability metadata, not
	// part of the mined result: ResultJSON excludes it, and byte-identity
	// guarantees (caching, determinism tests) are stated over Itemsets,
	// Stats, and Options.
	Profile *obs.Profile
}

// Stats counts the work the pruning rules saved; the ablation experiments
// (Fig. 6–9) read these.
type Stats struct {
	NodesVisited    int // enumeration-tree nodes expanded
	CandidateItems  int // single items surviving the candidate phase
	CHPruned        int // extensions cut by Chernoff-Hoeffding bound (Lemma 4.1)
	FreqPruned      int // extensions cut by exact Pr_F ≤ pfct
	SupersetPruned  int // subtrees cut by superset pruning (Lemma 4.2)
	SubsetPruned    int // sibling groups cut by subset pruning (Lemma 4.3)
	BoundRejected   int // candidates rejected by the Pr_FC upper bound (Lemma 4.4)
	BoundAccepted   int // candidates accepted by the Pr_FC lower bound
	ExactUnions     int // candidates resolved by inclusion-exclusion
	Sampled         int // candidates resolved by ApproxFCP sampling
	SamplesDrawn    int // total Monte-Carlo samples drawn
	Evaluated       int // candidates whose Pr_FC was evaluated at all
	TailEvaluations int // Poisson-binomial tails computed (memo misses)
	TailMemoHits    int // Poisson-binomial tails served from the memo
	ClauseEvaluated int // clause probabilities computed

	// Incremental-run counters (MineIncremental; always zero otherwise):
	// subtrees spliced from the reuse cache instead of re-mined, and result
	// items replayed from those splices. Work counters above cover only the
	// nodes actually re-mined, which is the point — the incremental saving
	// is directly readable as the drop in TailEvaluations/NodesVisited.
	SubtreesReused int // enumeration subtrees replayed from the reuse cache
	SplicedResults int // result items emitted by cache replay

	// Scheduling-dependent counters. Results and all other Stats are
	// byte-identical for every Parallelism setting, but these may vary
	// between runs: TasksSpawned/TasksStolen count work-stealing decisions
	// (which depend on which workers happened to be idle), and the
	// TailEvaluations/TailMemoHits split shifts with the per-worker memo
	// partition (their sum, total tail lookups, is invariant).
	TasksSpawned int // subtrees handed to the work-stealing pool
	TasksStolen  int // tasks taken from another worker's deque
}

// Delta returns the field-wise difference s − prev. Callers that share one
// accumulating Stats across phases (the sweep engine's Evaluator) snapshot
// before and after a phase and attribute the delta to it.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		NodesVisited:    s.NodesVisited - prev.NodesVisited,
		CandidateItems:  s.CandidateItems - prev.CandidateItems,
		CHPruned:        s.CHPruned - prev.CHPruned,
		FreqPruned:      s.FreqPruned - prev.FreqPruned,
		SupersetPruned:  s.SupersetPruned - prev.SupersetPruned,
		SubsetPruned:    s.SubsetPruned - prev.SubsetPruned,
		BoundRejected:   s.BoundRejected - prev.BoundRejected,
		BoundAccepted:   s.BoundAccepted - prev.BoundAccepted,
		ExactUnions:     s.ExactUnions - prev.ExactUnions,
		Sampled:         s.Sampled - prev.Sampled,
		SamplesDrawn:    s.SamplesDrawn - prev.SamplesDrawn,
		Evaluated:       s.Evaluated - prev.Evaluated,
		TailEvaluations: s.TailEvaluations - prev.TailEvaluations,
		TailMemoHits:    s.TailMemoHits - prev.TailMemoHits,
		ClauseEvaluated: s.ClauseEvaluated - prev.ClauseEvaluated,
		SubtreesReused:  s.SubtreesReused - prev.SubtreesReused,
		SplicedResults:  s.SplicedResults - prev.SplicedResults,
		TasksSpawned:    s.TasksSpawned - prev.TasksSpawned,
		TasksStolen:     s.TasksStolen - prev.TasksStolen,
	}
}

// add accumulates another Stats into s (used when merging parallel
// sub-miners).
func (s *Stats) add(o Stats) {
	s.NodesVisited += o.NodesVisited
	s.CandidateItems += o.CandidateItems
	s.CHPruned += o.CHPruned
	s.FreqPruned += o.FreqPruned
	s.SupersetPruned += o.SupersetPruned
	s.SubsetPruned += o.SubsetPruned
	s.BoundRejected += o.BoundRejected
	s.BoundAccepted += o.BoundAccepted
	s.ExactUnions += o.ExactUnions
	s.Sampled += o.Sampled
	s.SamplesDrawn += o.SamplesDrawn
	s.Evaluated += o.Evaluated
	s.TailEvaluations += o.TailEvaluations
	s.TailMemoHits += o.TailMemoHits
	s.ClauseEvaluated += o.ClauseEvaluated
	s.SubtreesReused += o.SubtreesReused
	s.SplicedResults += o.SplicedResults
	s.TasksSpawned += o.TasksSpawned
	s.TasksStolen += o.TasksStolen
}
