package service

// Sweep jobs: POST /v1/sweeps decomposes a parameter grid into per-point
// cache entries. Each grid point's canonical options form the same cache
// key a single POST /v1/jobs at those options would use, so sweeps consume
// results cached by earlier jobs (and earlier sweeps) and populate the
// cache for later ones. Only the points missing from the cache reach the
// sweep engine, which in turn runs one full enumeration per MinSup group
// and derives the rest (see internal/sweep).

import (
	"fmt"
	"time"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/sweep"
)

// sweepSlot is one grid point of a sweep job: its engine form, its result
// cache key, and — when the submit-time cache lookup hit — the cached
// result that spares the engine the point, decoded because the sweep
// payload embeds its fields.
type sweepSlot struct {
	point  sweep.Point
	key    string
	cached *core.ResultJSON
}

// SubmitSweep validates every grid point, consults the result cache per
// point, and either completes the sweep immediately (every point cached) or
// enqueues a job that mines only the missing points.
func (m *Manager) SubmitSweep(ds *Dataset, oj core.OptionsJSON, pts []sweep.PointJSON, timeout time.Duration) (JobInfo, error) {
	return fullInfo(m.submitSweep(ds, oj, pts, timeout))
}

func (m *Manager) submitSweep(ds *Dataset, oj core.OptionsJSON, pts []sweep.PointJSON, timeout time.Duration) (jobView, error) {
	if len(pts) == 0 {
		return jobView{}, fmt.Errorf("service: sweep needs at least one point")
	}
	opts, err := oj.Options()
	if err != nil {
		return jobView{}, err
	}
	// Sweeps always mine in-process — the inline sharded arithmetic is
	// byte-identical to the distributed evaluator, so the per-point cache
	// entries they produce stay interchangeable with single jobs mined over
	// the workers.
	if err := m.applyShards(&opts); err != nil {
		return jobView{}, err
	}
	capParallelism(&opts)
	slots := make([]sweepSlot, len(pts))
	for i, pj := range pts {
		p := pj.Point()
		canon, err := p.Apply(opts).Canonical()
		if err != nil {
			return jobView{}, fmt.Errorf("service: sweep point %d: %w", i, err)
		}
		key, err := canon.CanonicalKey()
		if err != nil {
			return jobView{}, fmt.Errorf("service: sweep point %d: %w", i, err)
		}
		slots[i] = sweepSlot{point: p, key: cacheKey(ds, canon, key)}
	}
	if timeout <= 0 || (m.maxJobTime > 0 && timeout > m.maxJobTime) {
		timeout = m.maxJobTime
	}

	j := &job{
		kind:      JobKindSweep,
		dataset:   ds.ID,
		db:        ds.DB(),
		options:   oj,
		opts:      opts,
		slots:     slots,
		timeout:   timeout,
		submitted: time.Now(),
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return jobView{}, ErrShuttingDown
	}
	m.seq++
	j.id = fmt.Sprintf("j%d", m.seq)
	if m.traceJobs {
		j.traceID = j.id
	}

	missing := 0
	for i := range j.slots {
		lookupStart := time.Now()
		var res *core.ResultJSON
		if enc, ok := m.cache.get(j.slots[i].key); ok {
			res, _ = enc.value() // a stored result that no longer decodes is re-mined
		}
		m.metrics.sweepCache.Observe(time.Since(lookupStart))
		if res != nil {
			j.slots[i].cached = res
			m.metrics.CacheHits.Add(1)
		} else {
			m.metrics.CacheMisses.Add(1)
			missing++
		}
	}
	m.metrics.SweepPointsCached.Add(int64(len(j.slots) - missing))

	if missing == 0 {
		j.status = StatusDone
		j.cached = true
		j.sweepRes = encodedValue(m.assembleSweep(j, nil))
		j.finished = time.Now()
		m.metrics.JobsDone.Add(1)
		m.metrics.SweepsDone.Add(1)
		m.addLocked(j)
		m.log.Info("sweep served from cache", "job", j.id, "dataset", j.dataset,
			"points", len(j.slots))
		return j.snapshot(), nil
	}

	j.status = StatusQueued
	select {
	case m.queue <- j:
	default:
		return jobView{}, ErrQueueFull
	}
	m.metrics.JobsQueued.Add(1)
	m.addLocked(j)
	m.log.Info("sweep queued", "job", j.id, "dataset", j.dataset,
		"points", len(j.slots), "cached", len(j.slots)-missing)
	return j.snapshot(), nil
}

// missingPoints lists the grid points the submit-time cache lookup missed,
// in request order.
func missingPoints(j *job) []sweep.Point {
	var out []sweep.Point
	for _, s := range j.slots {
		if s.cached == nil {
			out = append(out, s.point)
		}
	}
	return out
}

// assembleSweep merges cached per-point results with the engine's (res is
// nil when every point was cached), caches every freshly computed point
// under its single-job key, and returns the wire form in request order.
func (m *Manager) assembleSweep(j *job, res *sweep.Result) *sweep.ResultJSON {
	out := &sweep.ResultJSON{Points: make([]sweep.PointResultJSON, len(j.slots))}
	var engine []sweep.PointResultJSON
	if res != nil {
		rj := res.JSON()
		engine = rj.Points
		out.Stats = rj.Stats
	}
	k := 0
	for i, s := range j.slots {
		if s.cached != nil {
			out.Points[i] = sweep.PointResultJSON{
				Point:    s.point.JSON(),
				Options:  s.cached.Options,
				Cached:   true,
				Itemsets: s.cached.Itemsets,
				Stats:    s.cached.Stats,
			}
			continue
		}
		cj := res.Points[k].CoreJSON()
		m.cache.put(s.key, encodedValue(&cj))
		out.Points[i] = engine[k]
		k++
	}
	out.Stats.Points = len(j.slots)
	return out
}
