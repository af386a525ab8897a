package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilFastPath: every Recorder method must be a no-op on a nil receiver
// — this is the disabled path the miner takes when Options.Tracer is unset.
func TestNilFastPath(t *testing.T) {
	var r *Recorder
	if got := r.Now(); got != 0 {
		t.Fatalf("nil Recorder.Now() = %d, want 0", got)
	}
	r.Span(PhaseBoundCheck, 3, 0) // must not panic
	r.Node(2, 0, 42)
	var tr *Tracer
	if tr.Recorder(0) != nil {
		t.Fatal("nil Tracer.Recorder must return nil")
	}
	tr.AddMineWall(100)
	if tr.Profile() != nil {
		t.Fatal("nil Tracer.Profile must return nil")
	}
}

// TestAggregation: phase and depth aggregates must reflect exactly what was
// recorded, and Node must attribute selfNS (not the full span) to expand.
// The tracer runs on a fake clock, so every duration is exact.
func TestAggregation(t *testing.T) {
	var clock int64
	tr := NewWithClock(defaultRingSpans, func() int64 { return clock })
	r := tr.Recorder(0)

	start := r.Now()
	clock += int64(2 * time.Millisecond)
	r.Span(PhaseCandidates, 0, start)

	nodeStart := r.Now()
	clock += int64(time.Millisecond)
	r.Node(3, nodeStart, 500) // self time deliberately smaller than the span
	if got := tr.Now(); got != clock {
		t.Fatalf("Tracer.Now() = %d, want the clock's %d", got, clock)
	}

	tr.AddMineWall(10_000_000)
	p := tr.Profile()
	if p.TotalNS != 10_000_000 {
		t.Fatalf("TotalNS = %d", p.TotalNS)
	}
	if ns := p.PhaseWallNS("candidates"); ns != int64(2*time.Millisecond) {
		t.Fatalf("candidates wall %dns, want exactly 2ms", ns)
	}
	if ns := p.PhaseWallNS("expand"); ns != 500 {
		t.Fatalf("expand self time = %dns, want exactly the 500ns attributed", ns)
	}
	if len(p.Depths) != 1 || p.Depths[0].Depth != 3 || p.Depths[0].Nodes != 1 || p.Depths[0].WallNS != 500 {
		t.Fatalf("depth profile = %+v", p.Depths)
	}
	if len(p.Workers) != 1 || p.Workers[0].Spans != 2 {
		t.Fatalf("worker profile = %+v", p.Workers)
	}
	if _, err := json.Marshal(p); err != nil {
		t.Fatalf("profile must serialize: %v", err)
	}
	b := tr.WireSpans()
	if b.BusyNS != clock || len(b.Spans) != 2 ||
		b.Spans[0].StartNS != 0 || b.Spans[0].DurNS != int64(2*time.Millisecond) ||
		b.Spans[1].StartNS != int64(2*time.Millisecond) || b.Spans[1].DurNS != int64(time.Millisecond) {
		t.Fatalf("wire spans on the fake clock = %+v", b)
	}
}

// TestRingOverwrite: a full ring keeps the most recent spans and counts the
// evictions; aggregates stay exact.
func TestRingOverwrite(t *testing.T) {
	tr := NewWithCapacity(4)
	r := tr.Recorder(0)
	for i := 0; i < 10; i++ {
		r.Span(PhaseSample, i, r.Now())
	}
	p := tr.Profile()
	if p.SpansDropped != 6 {
		t.Fatalf("SpansDropped = %d, want 6", p.SpansDropped)
	}
	if c := p.Phases[PhaseSample].Count; c != 10 {
		t.Fatalf("aggregate count = %d, want 10 despite ring eviction", c)
	}
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	// The 4 retained spans are depths 6..9, emitted oldest-first.
	out := sb.String()
	if strings.Count(out, `"ph":"X"`) != 4 {
		t.Fatalf("chrome trace should hold 4 events:\n%s", out)
	}
	if !strings.Contains(out, `"args":{"depth":6}`) || strings.Contains(out, `"args":{"depth":5}`) {
		t.Fatalf("ring should retain the most recent spans:\n%s", out)
	}
}

// TestChromeTraceIsJSON: the exporter's output must parse as a JSON array
// of events with the fields the trace viewers require.
func TestChromeTraceIsJSON(t *testing.T) {
	tr := New()
	r0, r1 := tr.Recorder(0), tr.Recorder(1)
	r0.Span(PhaseCandidates, 0, r0.Now())
	r1.Node(2, r1.Now(), 10)
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, sb.String())
	}
	var spans, names int
	for _, ev := range events {
		if ev["ph"] == "M" {
			if ev["name"] != "thread_name" {
				t.Fatalf("unexpected metadata event: %v", ev)
			}
			names++
			continue
		}
		spans++
		for _, k := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event missing %q: %v", k, ev)
			}
		}
	}
	if spans != 2 || names != 2 {
		t.Fatalf("got %d spans and %d thread names, want 2 and 2", spans, names)
	}
}

// TestHistogram: bucket boundaries are inclusive upper bounds and the
// snapshot is cumulative, matching Prometheus le semantics.
func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond) // ≤ 1ms
	h.Observe(time.Millisecond)       // ≤ 1ms (inclusive)
	h.Observe(5 * time.Millisecond)   // ≤ 10ms
	h.Observe(time.Second)            // +Inf
	snap := h.Snapshot()
	if want := []int64{2, 3, 3}; snap.Cumulative[0] != want[0] || snap.Cumulative[1] != want[1] || snap.Cumulative[2] != want[2] {
		t.Fatalf("cumulative = %v, want %v", snap.Cumulative, want)
	}
	if snap.Count != 4 {
		t.Fatalf("count = %d, want 4", snap.Count)
	}
	if snap.SumSeconds < 1.0065 || snap.SumSeconds > 1.0066 {
		t.Fatalf("sum = %v", snap.SumSeconds)
	}
}

// TestHistogramConcurrent hammers Observe from many goroutines; run under
// -race this is the data-race check, and the final count must be exact.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(JobBuckets)
	const goroutines, per = 16, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
}

// TestTracerConcurrentRecorders: distinct workers may record concurrently
// on one tracer (the parallel miner does); -race validates isolation.
func TestTracerConcurrentRecorders(t *testing.T) {
	tr := New()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := tr.Recorder(w)
			for i := 0; i < 500; i++ {
				r.Node(i%6, r.Now(), int64(i))
				r.Span(PhaseBoundCheck, i%6, r.Now())
			}
		}(w)
	}
	wg.Wait()
	p := tr.Profile()
	if len(p.Workers) != workers {
		t.Fatalf("got %d worker profiles, want %d", len(p.Workers), workers)
	}
	if c := p.Phases[PhaseBoundCheck].Count; c != workers*500 {
		t.Fatalf("bound-check count = %d, want %d", c, workers*500)
	}
}

// TestImportBatchMergesRemoteSpans: a remote batch lands as a labeled
// worker with its own per-phase breakdown, shifted by the import offset,
// and is excluded from the global phase aggregates (that exclusion is what
// keeps phase sums ≈ wall time when RPC waits are already covered by the
// coordinator's own bound-check spans — DESIGN §16).
func TestImportBatchMergesRemoteSpans(t *testing.T) {
	tr := New()
	r := tr.Recorder(0)
	r.Span(PhaseBoundCheck, 1, r.Now())
	localBound := tr.Profile().PhaseWallNS("bound-check")

	batch := SpanBatch{BusyNS: 500, Spans: []SpanWire{
		{StartNS: 10, DurNS: 100, Phase: uint8(PhaseBoundCheck), Depth: 2},
		{StartNS: 120, DurNS: 50, Phase: uint8(PhaseBoundCheck), Depth: 3},
	}}
	tr.ImportBatch("w1:9101", 1000, batch)

	p := tr.Profile()
	if got := p.PhaseWallNS("bound-check"); got != localBound {
		t.Errorf("global bound-check = %d, want unchanged %d (remote time must not fold in)", got, localBound)
	}
	wp := p.RemoteWorker("w1:9101")
	if wp == nil {
		t.Fatalf("no remote worker profile: %+v", p.Workers)
	}
	if wp.Worker != -1 || wp.BusyNS != 150 || wp.Spans != 2 {
		t.Errorf("remote profile = %+v, want worker -1, busy 150, spans 2", wp)
	}
	if len(wp.Phases) != 1 || wp.Phases[0].Phase != "bound-check" || wp.Phases[0].WallNS != 150 {
		t.Errorf("remote phases = %+v", wp.Phases)
	}

	// The Chrome export shifts the spans onto the importer's timeline and
	// names the remote thread by its label.
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"name":"w1:9101"`) {
		t.Errorf("chrome trace lacks the remote thread name:\n%s", out)
	}
	if !strings.Contains(out, `"ts":1.010`) { // (1000+10) ns → 1.010 µs
		t.Errorf("remote span not shifted by the offset:\n%s", out)
	}
}

// TestImportBatchRingOverflow: imported spans obey the same ring bound as
// local recorders — the aggregate stays exact, the overflow is counted.
func TestImportBatchRingOverflow(t *testing.T) {
	tr := NewWithCapacity(4)
	spans := make([]SpanWire, 10)
	for i := range spans {
		spans[i] = SpanWire{StartNS: int64(i), DurNS: 1, Phase: uint8(PhaseBoundCheck), Depth: int16(i)}
	}
	tr.ImportBatch("w", 0, SpanBatch{Spans: spans})
	p := tr.Profile()
	if p.SpansDropped != 6 {
		t.Errorf("dropped = %d, want 6", p.SpansDropped)
	}
	wp := p.RemoteWorker("w")
	if wp == nil || wp.Spans != 10 || wp.BusyNS != 10 {
		t.Errorf("aggregates must be exact despite the ring bound: %+v", wp)
	}
	// An out-of-range phase from a future producer is skipped, not a panic.
	tr.ImportBatch("w", 0, SpanBatch{Spans: []SpanWire{{Phase: 200, DurNS: 5}}})
	if got := tr.Profile().RemoteWorker("w").Spans; got != 10 {
		t.Errorf("unknown phase should be ignored, spans = %d", got)
	}
}

// TestImportBatchConcurrent: parallel RPC completions import into one
// tracer while local recorders write; -race validates the locking.
func TestImportBatchConcurrent(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			label := fmt.Sprintf("w%d", g%3)
			for i := 0; i < 200; i++ {
				tr.ImportBatch(label, int64(i), SpanBatch{Spans: []SpanWire{
					{StartNS: 0, DurNS: 1, Phase: uint8(PhaseBoundCheck)},
				}})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := tr.Recorder(0)
		for i := 0; i < 500; i++ {
			r.Span(PhaseExpand, 1, r.Now())
		}
	}()
	wg.Wait()
	p := tr.Profile()
	var remoteSpans int64
	for _, wp := range p.Workers {
		if wp.Label != "" {
			remoteSpans += wp.Spans
		}
	}
	if remoteSpans != 8*200 {
		t.Errorf("remote spans = %d, want %d", remoteSpans, 8*200)
	}
}

// TestWireSpansRoundTrip: a producer-side tracer drains to a batch that an
// importer reconstructs faithfully.
func TestWireSpansRoundTrip(t *testing.T) {
	prod := New()
	r := prod.Recorder(0)
	r.Span(PhaseBoundCheck, 2, r.Now())
	b := prod.WireSpans()
	if len(b.Spans) != 1 || b.BusyNS <= 0 {
		t.Fatalf("batch = %+v", b)
	}
	if b.Spans[0].Depth != 2 || Phase(b.Spans[0].Phase) != PhaseBoundCheck {
		t.Fatalf("span = %+v", b.Spans[0])
	}
	cons := New()
	cons.ImportBatch("x", 0, b)
	if wp := cons.Profile().RemoteWorker("x"); wp == nil || wp.Spans != 1 {
		t.Fatalf("round trip lost the span: %+v", cons.Profile().Workers)
	}
}
