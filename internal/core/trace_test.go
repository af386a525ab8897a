package core

import (
	"bytes"
	"encoding/json"
	"sort"
	"sync/atomic"
	"testing"

	"github.com/probdata/pfcim/internal/gen"
	"github.com/probdata/pfcim/internal/obs"
)

// tracedWorkload is a Mushroom-like run dense enough to exercise every
// phase: candidate pruning, deep expansion, bound verdicts, exact unions,
// and Karp-Luby sampling.
func tracedWorkload(t *testing.T) (dbOpts struct{}, run func(opts Options) *Result, base Options) {
	t.Helper()
	raw := gen.MushroomLike(0.03, 42)
	db := gen.AssignGaussian(raw, 0.5, 0.5, 43)
	base = Options{
		MinSup: AbsoluteMinSup(db.N(), 0.2),
		PFCT:   0.3,
		Seed:   7,
	}
	run = func(opts Options) *Result {
		t.Helper()
		res, err := Mine(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	return
}

// normalizeScheduling zeroes the counters that legitimately depend on the
// scheduler interleaving (task accounting and the tail-memo hit split),
// mirroring TestParallelismInvariantResults.
func normalizeScheduling(s Stats) Stats {
	s.TasksSpawned, s.TasksStolen = 0, 0
	s.TailEvaluations, s.TailMemoHits = s.TailEvaluations+s.TailMemoHits, 0
	return s
}

// TestTracerDoesNotPerturbResults: attaching a Tracer must leave the wire
// form of the result byte-identical — itemsets, probabilities, methods, and
// every deterministic stat — including under the work-stealing parallel
// scheduler. This is the "observability is read-only" contract of
// DESIGN.md §11.
func TestTracerDoesNotPerturbResults(t *testing.T) {
	_, run, base := tracedWorkload(t)
	for _, par := range []int{1, 4} {
		plain := base
		plain.Parallelism = par
		traced := plain
		traced.Tracer = obs.New()

		a := run(plain)
		b := run(traced)
		if a.Profile != nil {
			t.Fatalf("par=%d: untraced run carries a profile", par)
		}
		if b.Profile == nil {
			t.Fatalf("par=%d: traced run is missing its profile", par)
		}

		aj, bj := a.JSON(), b.JSON()
		aj.Stats = normalizeScheduling(aj.Stats)
		bj.Stats = normalizeScheduling(bj.Stats)
		ab, err := json.Marshal(aj)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := json.Marshal(bj)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab, bb) {
			t.Fatalf("par=%d: traced result differs from untraced:\n traced %s\nuntraced %s", par, bb, ab)
		}
	}
}

// steppingClock is a fake tracer clock: every reading advances it by a
// fixed step, so a traced run's timestamps depend only on the sequence of
// clock reads, never on the host's scheduling.
type steppingClock struct{ ns atomic.Int64 }

func (c *steppingClock) now() int64 { return c.ns.Add(1000) }

// TestTracerPhaseSums: the per-phase self times must partition the run. On
// a stepping fake clock that the miner's wall time and every span read, a
// serial run's phases are non-negative, sum to at most TotalNS, and the
// detailed spans nest (any two are disjoint or one contains the other). The
// real-clock coverage ratio is a property of the host, not the tracer; the
// benchmark's traced core.phase_coverage gate checks it on a workload large
// enough to measure.
func TestTracerPhaseSums(t *testing.T) {
	_, run, base := tracedWorkload(t)
	opts := base
	clk := &steppingClock{}
	opts.Tracer = obs.NewWithClock(1<<16, clk.now)
	res := run(opts)
	p := res.Profile
	if p == nil || p.TotalNS <= 0 {
		t.Fatalf("profile missing or empty: %+v", p)
	}
	var sum int64
	for _, ph := range p.Phases {
		if ph.WallNS < 0 {
			t.Fatalf("negative wall time in phase %s: %d", ph.Phase, ph.WallNS)
		}
		sum += ph.WallNS
	}
	if sum > p.TotalNS {
		t.Errorf("phase sum %d exceeds total %d", sum, p.TotalNS)
	}
	if p.SpansDropped != 0 {
		t.Fatalf("%d spans dropped; the nesting check needs them all", p.SpansDropped)
	}
	spans := opts.Tracer.WireSpans().Spans
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartNS != spans[j].StartNS {
			return spans[i].StartNS < spans[j].StartNS
		}
		return spans[i].DurNS > spans[j].DurNS
	})
	var open []obs.SpanWire // enclosing spans, outermost first
	for _, sp := range spans {
		if sp.DurNS < 0 {
			t.Fatalf("negative span %+v", sp)
		}
		for len(open) > 0 && open[len(open)-1].StartNS+open[len(open)-1].DurNS <= sp.StartNS {
			open = open[:len(open)-1]
		}
		if len(open) > 0 {
			if top := open[len(open)-1]; sp.StartNS+sp.DurNS > top.StartNS+top.DurNS {
				t.Fatalf("span %+v overlaps %+v without nesting", sp, top)
			}
		}
		open = append(open, sp)
	}
	t.Logf("%d nested spans; phase sum %d of total %d", len(spans), sum, p.TotalNS)
	if p.PhaseWallNS("expand") == 0 {
		t.Error("no expand time attributed")
	}
	if p.PhaseWallNS("bound-check") == 0 {
		t.Error("no bound-check time attributed")
	}
	if len(p.Depths) == 0 {
		t.Error("no per-depth profile")
	}
	if res.Stats.Sampled > 0 && p.PhaseWallNS("sampling") == 0 {
		t.Error("run sampled but no sampling time attributed")
	}
	if res.Stats.ExactUnions > 0 && p.PhaseWallNS("exact-union") == 0 {
		t.Error("run used exact unions but no exact-union time attributed")
	}
}

// TestTracerParallelWorkers: at Parallelism=4 the profile must show the
// pool workers' recorders (ids 1..4) alongside the coordinator (id 0), so
// work-stealing imbalance is visible per worker.
func TestTracerParallelWorkers(t *testing.T) {
	_, run, base := tracedWorkload(t)
	opts := base
	opts.Parallelism = 4
	opts.Tracer = obs.New()
	res := run(opts)
	p := res.Profile
	if p == nil {
		t.Fatal("missing profile")
	}
	if len(p.Workers) != 5 {
		t.Fatalf("got %d worker profiles, want 5 (coordinator + 4 pool workers)", len(p.Workers))
	}
	var poolBusy int64
	for _, w := range p.Workers[1:] {
		poolBusy += w.BusyNS
	}
	if poolBusy == 0 {
		t.Error("pool workers recorded no busy time")
	}
}

// TestTracerBFS: the level-wise framework must attribute time through the
// same taxonomy.
func TestTracerBFS(t *testing.T) {
	_, run, base := tracedWorkload(t)
	opts := base
	opts.Search = BFS
	opts.Tracer = obs.New()
	res := run(opts)
	p := res.Profile
	if p == nil {
		t.Fatal("missing profile")
	}
	if p.PhaseWallNS("expand") == 0 || p.PhaseWallNS("bound-check") == 0 {
		t.Errorf("BFS run left phases unattributed: %+v", p.Phases)
	}
}

// TestTracerChromeExport: the traced run must export parseable Chrome
// trace-event JSON with spans from every recorded phase that occurred.
func TestTracerChromeExport(t *testing.T) {
	_, run, base := tracedWorkload(t)
	opts := base
	opts.Tracer = obs.New()
	run(opts)
	var buf bytes.Buffer
	if err := opts.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("chrome trace is empty")
	}
	names := map[string]bool{}
	for _, ev := range events {
		names[ev["name"].(string)] = true
	}
	for _, want := range []string{"candidates", "expand", "bound-check"} {
		if !names[want] {
			t.Errorf("chrome trace has no %q spans", want)
		}
	}
}

// TestNaiveAndTopKHonourOptions: NaiveMine and MineTopK build their miner
// through the same constructor as Mine, so they honour Options.Tracer and
// Options.Tidsets too.
func TestNaiveAndTopKHonourOptions(t *testing.T) {
	db := gen.AssignGaussian(gen.MushroomLike(0.01, 42), 0.5, 0.5, 43)
	minSup := AbsoluteMinSup(db.N(), 0.3)
	base := Options{MinSup: minSup, PFCT: 0.5, Seed: 7}

	traced := base
	traced.Tracer = obs.New()
	naive, err := NaiveMine(db, traced)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Profile == nil || naive.Profile.PhaseWallNS("sampling") == 0 {
		t.Errorf("traced NaiveMine left no sampling time in its profile: %+v", naive.Profile)
	}

	tr := obs.New()
	traced.Tracer = tr
	top, err := MineTopK(db, minSup, 5, traced)
	if err != nil {
		t.Fatal(err)
	}
	if p := tr.Profile(); p.PhaseWallNS("candidates") == 0 || p.PhaseWallNS("bound-check") == 0 {
		t.Errorf("traced MineTopK left phases unattributed: %+v", p.Phases)
	}

	compressed := base
	compressed.Tidsets = TidsetsCompressed
	naiveC, err := NaiveMine(db, compressed)
	if err != nil {
		t.Fatal(err)
	}
	topC, err := MineTopK(db, minSup, 5, compressed)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		name      string
		auto, cmp interface{}
	}{
		{"NaiveMine", naive.JSON().Itemsets, naiveC.JSON().Itemsets},
		{"MineTopK", top, topC},
	} {
		a, _ := json.Marshal(pair.auto)
		c, _ := json.Marshal(pair.cmp)
		if !bytes.Equal(a, c) {
			t.Errorf("%s under TidsetsCompressed differs:\n%s\nvs\n%s", pair.name, c, a)
		}
	}
	if len(naive.Itemsets) == 0 || len(top) == 0 {
		t.Fatalf("vacuous workload: naive %d, top-k %d itemsets", len(naive.Itemsets), len(top))
	}
}
