package obs

import "sort"

// Remote span import (DESIGN.md §16): a shard worker runs its kernel calls
// under its own short-lived tracer and ships the recorded spans back in the
// RPC response; the coordinator folds them into the owning job's tracer,
// attributed to the worker by label and shifted onto the coordinator's
// clock. Import is additive observability only — it reads nothing the
// mining computation writes, so results stay byte-identical whether remote
// tracing is on or off.

// SpanWire is the wire form of one remote span. Timestamps are nanoseconds
// relative to the batch epoch (the worker's handler start), so the producer
// needs no synchronized clock — the importer maps them onto the local
// timeline with the offset it derives from the RPC round trip.
type SpanWire struct {
	StartNS int64 `json:"s"`
	DurNS   int64 `json:"d"`
	Phase   uint8 `json:"p"`
	Depth   int16 `json:"de,omitempty"`
}

// SpanBatch is one RPC's worth of remote spans plus the producer's busy
// time (the handler wall clock covering every span), which the importer
// uses to estimate the clock offset: with a round trip of rtt and a remote
// busy time of busy, the symmetric-network model places the remote epoch at
// send + (rtt − busy)/2 on the local timeline.
type SpanBatch struct {
	BusyNS int64      `json:"busy_ns"`
	Spans  []SpanWire `json:"spans,omitempty"`
}

// Empty reports whether the batch carries no spans.
func (b SpanBatch) Empty() bool { return len(b.Spans) == 0 }

// WireSpans drains the tracer's recorded spans into a batch, in ring order,
// with timestamps kept relative to the tracer's epoch. Intended for the
// producing side (one short-lived tracer per RPC); call after the observed
// work completed.
func (t *Tracer) WireSpans() SpanBatch {
	if t == nil {
		return SpanBatch{}
	}
	t.mu.Lock()
	recs := make([]*Recorder, len(t.recs))
	copy(recs, t.recs)
	t.mu.Unlock()
	var b SpanBatch
	for _, r := range recs {
		for _, sp := range r.ordered() {
			b.Spans = append(b.Spans, SpanWire{StartNS: sp.Start, DurNS: sp.Dur, Phase: uint8(sp.Phase), Depth: sp.Depth})
		}
	}
	b.BusyNS = t.now()
	return b
}

// ordered returns the ring's retained spans oldest-first.
func (r *Recorder) ordered() []Span {
	if r.dropped > 0 {
		out := make([]Span, 0, len(r.spans))
		out = append(out, r.spans[r.next:]...)
		out = append(out, r.spans[:r.next]...)
		return out
	}
	return r.spans
}

// Now returns nanoseconds since the tracer's epoch; 0 on a nil tracer. The
// shard client reads it around each RPC attempt to place remote spans on
// the job timeline.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// ImportBatch merges a remote span batch into the tracer under the given
// worker label, shifting every span by offsetNS (the batch epoch expressed
// on this tracer's timeline). Safe for concurrent use — remote batches
// arrive from parallel RPC goroutines while local recorders are still
// writing — and bounded like local recorders: each label owns a ring of the
// tracer's capacity, overflowing into the dropped counter. Phase and depth
// aggregates stay exact regardless. Nil-safe.
func (t *Tracer) ImportBatch(label string, offsetNS int64, b SpanBatch) {
	if t == nil || b.Empty() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.remote[label]
	if r == nil {
		if t.remote == nil {
			t.remote = map[string]*Recorder{}
		}
		r = &Recorder{t: t, label: label}
		t.remote[label] = r
	}
	for _, sp := range b.Spans {
		p := Phase(sp.Phase)
		if p >= NumPhases {
			continue // future producer: don't let an unknown phase index out of range
		}
		r.ring(p, int(sp.Depth), offsetNS+sp.StartNS, sp.DurNS)
		r.phaseNS[p] += sp.DurNS
		r.phaseCount[p]++
	}
}

// remoteRecorders returns the imported recorders in stable label order.
// Caller holds t.mu.
func (t *Tracer) remoteRecorders() []*Recorder {
	if len(t.remote) == 0 {
		return nil
	}
	labels := make([]string, 0, len(t.remote))
	for l := range t.remote {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	out := make([]*Recorder, len(labels))
	for i, l := range labels {
		out[i] = t.remote[l]
	}
	return out
}
