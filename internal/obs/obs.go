// Package obs is the low-overhead observability substrate shared by the
// miner and the pfcimd daemon: a span recorder that attributes wall time to
// the phases of the paper's Bounding–Pruning–Checking cascade, the profile
// aggregation attached to mining results, a Chrome trace-event exporter,
// and the fixed-bucket latency histograms the daemon's Prometheus endpoint
// serves.
//
// Design constraints (DESIGN.md §11):
//
//   - Tracing must never perturb results. The recorder only reads the
//     monotonic clock and writes into tracer-owned memory; no mining state
//     is touched, so results are byte-identical with tracing on or off.
//   - The disabled path must be free. Every Recorder method is defined on a
//     nil receiver and returns immediately, so an untraced run pays one nil
//     check per call site — no interface dispatch, no allocation.
//   - The enabled path must be cheap and allocation-free in steady state.
//     Each worker owns a private Recorder (single writer, no locks) with a
//     span ring that grows on demand up to its capacity, so a short run
//     does not pay for a full ring up front; once the ring is full, the
//     oldest detailed spans are overwritten but the aggregate profile
//     keeps counting, so a long run degrades to "recent window + exact
//     totals" rather than growing without bound.
package obs

import (
	"fmt"
	"sync"
	"time"
)

// Phase identifies where mining wall time went, mapped to the paper's
// algorithm structure (§IV): the candidate phase of Fig. 1, the ProbFC
// enumeration of Fig. 3, and the three stages of the §IV.B checking
// cascade.
type Phase uint8

const (
	// PhaseCandidates is the single-item candidate construction with
	// Chernoff-Hoeffding pruning (Fig. 1 phase 1, Lemma 4.1).
	PhaseCandidates Phase = iota
	// PhaseExpand is enumeration-tree node expansion: extension probing,
	// tidset intersection, and the Lemma 4.1–4.3 pruning decisions. Span
	// durations cover the whole subtree (so traces nest); only the node's
	// self time — net of children and checking — enters the aggregate.
	PhaseExpand
	// PhaseBoundCheck is the checking cascade up to the Lemma 4.4 verdict:
	// clause construction, the clause system, and the first-order plus
	// pairwise union bounds.
	PhaseBoundCheck
	// PhaseExactUnion is the exact inclusion–exclusion resolution of the
	// extension-event union.
	PhaseExactUnion
	// PhaseSample is the ApproxFCP Karp–Luby Monte-Carlo estimator.
	PhaseSample

	// NumPhases is the number of distinct phases.
	NumPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseCandidates:
		return "candidates"
	case PhaseExpand:
		return "expand"
	case PhaseBoundCheck:
		return "bound-check"
	case PhaseExactUnion:
		return "exact-union"
	case PhaseSample:
		return "sampling"
	}
	return fmt.Sprintf("phase-%d", uint8(p))
}

// Span is one completed timed region. Start is nanoseconds since the
// tracer's epoch (monotonic), Dur its length; Depth is the enumeration
// depth (|X|) or 0 where not applicable, Worker the recorder's worker id.
type Span struct {
	Start  int64
	Dur    int64
	Phase  Phase
	Depth  int16
	Worker int16
}

// defaultRingSpans bounds each worker's detailed-span ring (≈24 B/span →
// ~400 KiB per worker at the default). Aggregates are exact regardless.
const defaultRingSpans = 1 << 14

// Tracer owns one observed region of work — typically one mining run, or
// one daemon job (a sweep job's tracer spans all its enumerations and
// replays). It hands out per-worker Recorders and merges them into a
// Profile. Recorder creation is synchronized; recording itself is
// lock-free (one writer per Recorder).
type Tracer struct {
	now      func() int64 // nanoseconds since the tracer's epoch
	ringCap  int
	mu       sync.Mutex
	recs     []*Recorder
	remote   map[string]*Recorder // imported remote batches, keyed by worker label
	totalNS  int64                // mine wall time accumulated via AddMineWall
	mineRuns int64
}

// New returns a Tracer with the default per-worker span-ring capacity.
func New() *Tracer { return NewWithCapacity(defaultRingSpans) }

// NewWithCapacity bounds each worker's detailed-span ring to ringSpans
// spans; 0 keeps aggregate profiling only (no Chrome trace detail).
func NewWithCapacity(ringSpans int) *Tracer {
	epoch := time.Now()
	return NewWithClock(ringSpans, func() int64 { return int64(time.Since(epoch)) })
}

// NewWithClock is NewWithCapacity on a caller-supplied clock: now returns
// nanoseconds since the tracer's epoch and must be monotonic and safe for
// concurrent use. Every timestamp the tracer takes — span bounds, node
// self times, Tracer.Now, a batch's busy time — reads it, so a test can
// drive a trace with a stepping fake clock and check its structure
// exactly.
func NewWithClock(ringSpans int, now func() int64) *Tracer {
	if ringSpans < 0 {
		ringSpans = 0
	}
	return &Tracer{now: now, ringCap: ringSpans}
}

// Recorder returns the recorder of the given worker id (0 = the serial
// miner / main goroutine), creating it on first use. The same id always
// returns the same recorder, so sequential phases of one goroutine share a
// ring. Safe for concurrent use; the returned Recorder is single-writer.
func (t *Tracer) Recorder(worker int) *Recorder {
	if t == nil || worker < 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.recs) <= worker {
		t.recs = append(t.recs, &Recorder{t: t, worker: int16(len(t.recs))})
	}
	return t.recs[worker]
}

// AddMineWall accounts one mining run's total wall time; Profile reports
// the sum as TotalNS so per-phase shares have a denominator.
func (t *Tracer) AddMineWall(ns int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.totalNS += ns
	t.mineRuns++
	t.mu.Unlock()
}

// Recorder is one worker's private span sink. All methods are nil-safe:
// calling them on a nil *Recorder is the disabled fast path and does
// nothing. A Recorder must only be written by one goroutine at a time;
// reading (Profile, WriteChromeTrace) is only valid after the observed
// work has completed.
type Recorder struct {
	t      *Tracer
	worker int16
	label  string // non-empty for imported remote recorders

	phaseNS    [NumPhases]int64
	phaseCount [NumPhases]int64
	depthNS    []int64 // PhaseExpand self time per enumeration depth
	depthCount []int64

	claimed int64 // Σ phaseNS: the time attributed so far

	spans   []Span // ring of the most recent detailed spans
	next    int    // overwrite cursor once the ring is full
	dropped int64  // spans evicted from the ring
}

// Now returns nanoseconds since the tracer's epoch (monotonic), or 0 on
// the nil fast path. Span starts and self-time segment boundaries read it.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return r.t.now()
}

// Span records a region of phase p that started at start (a prior Now
// value) and ends now, both in the detailed ring and the aggregate.
func (r *Recorder) Span(p Phase, depth int, start int64) {
	if r == nil {
		return
	}
	end := r.t.now()
	r.ring(p, depth, start, end-start)
	r.phaseNS[p] += end - start
	r.phaseCount[p]++
	r.claimed += end - start
}

// Claimed returns the time this recorder has attributed to phases so far,
// 0 on the nil fast path. Read it together with a region's start time
// and pass both to Unclaimed when the region ends.
func (r *Recorder) Claimed() int64 {
	if r == nil {
		return 0
	}
	return r.claimed
}

// Unclaimed returns the time since start (a prior Now value) that no span
// or node recorded since has claimed; claimed is the Claimed value read
// with start. It is the self time of a region whose parts record their
// own spans and nodes, and it leaves no gap between them: a node passing
// it to Node attributes its whole interval, children and checking spans
// included, exactly once.
func (r *Recorder) Unclaimed(start, claimed int64) int64 {
	if r == nil {
		return 0
	}
	return r.t.now() - start - (r.claimed - claimed)
}

// Node records one enumeration-tree node: the detailed span covers
// [start, now] — the full subtree, so Chrome traces nest into a flame
// graph — while only selfNS (the node's own expansion work, net of inline
// children and of the checking cascade) enters the expand-phase and
// per-depth aggregates, keeping phase totals additive.
func (r *Recorder) Node(depth int, start, selfNS int64) {
	if r == nil {
		return
	}
	end := r.t.now()
	r.ring(PhaseExpand, depth, start, end-start)
	r.phaseNS[PhaseExpand] += selfNS
	r.phaseCount[PhaseExpand]++
	r.claimed += selfNS
	for len(r.depthNS) <= depth {
		r.depthNS = append(r.depthNS, 0)
		r.depthCount = append(r.depthCount, 0)
	}
	r.depthNS[depth] += selfNS
	r.depthCount[depth]++
}

func (r *Recorder) ring(p Phase, depth int, start, dur int64) {
	sp := Span{Start: start, Dur: dur, Phase: p, Depth: int16(depth), Worker: r.worker}
	switch {
	case len(r.spans) < r.t.ringCap:
		r.spans = append(r.spans, sp)
	case len(r.spans) > 0:
		r.spans[r.next] = sp
		r.next = (r.next + 1) % len(r.spans)
		r.dropped++
	default:
		r.dropped++
	}
}

// PhaseProfile is the aggregate of one phase.
type PhaseProfile struct {
	Phase string `json:"phase"`
	// WallNS is the total self time attributed to the phase. Phases
	// partition a worker's busy time, so in a serial run the phase sums
	// approach TotalNS.
	WallNS int64 `json:"wall_ns"`
	Count  int64 `json:"count"`
}

// DepthProfile is the expand-phase aggregate of one enumeration depth —
// the per-level cost shape of the DFS (depth 1 = single items).
type DepthProfile struct {
	Depth  int   `json:"depth"`
	WallNS int64 `json:"wall_ns"`
	Nodes  int64 `json:"nodes"`
}

// WorkerProfile is one worker's share of the attributed time; comparing
// BusyNS across workers makes work-stealing imbalance visible. Remote shard
// workers carry their address in Label (Worker is -1) plus their own
// per-phase breakdown — their busy time is deliberately NOT folded into the
// profile's global phase aggregates, because the coordinator's bound-check
// spans already cover the RPC waits those remote spans sit inside
// (DESIGN §16: that exclusion is what keeps phase sums ≈ wall time).
type WorkerProfile struct {
	Worker int    `json:"worker"`
	Label  string `json:"label,omitempty"`
	BusyNS int64  `json:"busy_ns"`
	Spans  int64  `json:"spans"`
	// Phases is the per-phase breakdown of a remote worker's spans; empty
	// for local workers (their time is in Profile.Phases).
	Phases []PhaseProfile `json:"phases,omitempty"`
}

// Profile is the merged wall-time attribution of everything the tracer
// observed. It is attached to core.Result (tracer-enabled runs) and served
// by pfcimd's GET /v1/jobs/{id}/trace.
type Profile struct {
	// TotalNS is the summed wall time of the mining runs observed (via
	// AddMineWall); 0 when the tracer never saw a full run.
	TotalNS int64           `json:"total_ns"`
	Phases  []PhaseProfile  `json:"phases"`
	Depths  []DepthProfile  `json:"depths,omitempty"`
	Workers []WorkerProfile `json:"workers,omitempty"`
	// SpansDropped counts detailed spans evicted from the rings; aggregates
	// above are exact regardless.
	SpansDropped int64 `json:"spans_dropped,omitempty"`
}

// PhaseWallNS returns the attributed wall time of the named phase.
func (p *Profile) PhaseWallNS(name string) int64 {
	for _, ph := range p.Phases {
		if ph.Phase == name {
			return ph.WallNS
		}
	}
	return 0
}

// Profile merges every recorder into one Profile. Call it only after the
// observed work has completed (the miner's pool join provides the
// happens-before edge).
func (t *Tracer) Profile() *Profile {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	recs := make([]*Recorder, len(t.recs))
	copy(recs, t.recs)
	remotes := t.remoteRecorders()
	p := &Profile{TotalNS: t.totalNS}
	t.mu.Unlock()

	var phaseNS, phaseCount [NumPhases]int64
	var depthNS, depthCount []int64
	for _, r := range recs {
		var busy, spans int64
		for ph := Phase(0); ph < NumPhases; ph++ {
			phaseNS[ph] += r.phaseNS[ph]
			phaseCount[ph] += r.phaseCount[ph]
			busy += r.phaseNS[ph]
			spans += r.phaseCount[ph]
		}
		for d, ns := range r.depthNS {
			for len(depthNS) <= d {
				depthNS = append(depthNS, 0)
				depthCount = append(depthCount, 0)
			}
			depthNS[d] += ns
			depthCount[d] += r.depthCount[d]
		}
		p.SpansDropped += r.dropped
		p.Workers = append(p.Workers, WorkerProfile{Worker: int(r.worker), BusyNS: busy, Spans: spans})
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		p.Phases = append(p.Phases, PhaseProfile{Phase: ph.String(), WallNS: phaseNS[ph], Count: phaseCount[ph]})
	}
	for d := range depthNS {
		if depthCount[d] == 0 {
			continue
		}
		p.Depths = append(p.Depths, DepthProfile{Depth: d, WallNS: depthNS[d], Nodes: depthCount[d]})
	}
	// Remote workers: labeled, with their own phase breakdown, excluded
	// from the global phase sums (see WorkerProfile).
	for _, r := range remotes {
		wp := WorkerProfile{Worker: -1, Label: r.label}
		for ph := Phase(0); ph < NumPhases; ph++ {
			if r.phaseCount[ph] == 0 {
				continue
			}
			wp.BusyNS += r.phaseNS[ph]
			wp.Spans += r.phaseCount[ph]
			wp.Phases = append(wp.Phases, PhaseProfile{Phase: ph.String(), WallNS: r.phaseNS[ph], Count: r.phaseCount[ph]})
		}
		p.SpansDropped += r.dropped
		p.Workers = append(p.Workers, wp)
	}
	return p
}

// RemoteWorker returns the labeled remote worker's profile entry, or nil.
func (p *Profile) RemoteWorker(label string) *WorkerProfile {
	for i := range p.Workers {
		if p.Workers[i].Label == label {
			return &p.Workers[i]
		}
	}
	return nil
}
