package main

// The traced run's per-layer probes. Each probe calls one layer's public
// functions from outside the program and reads what those calls return
// (Result.Stats, Result.Profile, sweep.Stats, JobInfo, Server.Metrics()).
// Every per-layer metric, the layer it measures, and the end-to-end metric
// it should move (workload in brackets):
//
//	core.phase.{candidates,expand,bound_check,sampling}_ms  phase self time of a traced dense call → mine_dense_ms, mine_sparse_ms [mine]
//	core.phase.exact_union_ms   the paper options disable inclusion–exclusion, so this phase is read from a traced dense call at the daemon's default MaxExactClauses
//	core.phase_coverage         Σ phase self time ÷ the traced dense call's wall time; outside [0.9, 1.1] the run fails
//	core.nodes_visited, core.tail_memo_hit_ratio → mine_dense_ms, mine_sparse_ms [mine]
//	core.bound_decided_ratio    (BoundAccepted + BoundRejected) ÷ Evaluated of dense → mine_dense_ms [mine]
//	core.allocs_per_op, core.bytes_per_op  runtime.MemStats deltas over one iteration ÷ 5 calls → every mine_* metric [mine]
//	poibin.tail_{dp,conv}_us    Scratch.TailKernel on 8192 seeded probabilities → mine_sparse_ms, then mine_dense_ms [mine]
//	bitset.and_{batch16,dense,compressed}_ns → mine_dense_ms (dense data), mine_sparse_ms (sparse data) [mine]
//	dnf.clauses_per_candidate   ClauseEvaluated ÷ Evaluated of dense; dnf.samples_drawn of dense → mine_dense_ms [mine]
//	sweep.full_enumerations (must be 1), sweep.reestimated_ratio, sweep.speedup_vs_perpoint, with 5 independent core.Mine calls as base → sweep_ms [mine]
//	shard.inline_overhead       mine_sharded_ms ÷ mine_dense_ms → mine_sharded_ms [mine]
//	shard.rpc_calls_per_mine, shard.worker_busy_ms (worker handler wrapper), shard.rpc_p50_ms, shard.retries (client Observer) → mine_rpc_ms [mine]
//	stream.round_ms, stream.unchanged_ratio, stream.subtrees_reused_per_round → @latest watched-job turnaround [write traffic; no workload]
//	service.cache_hit_ratio → job_p50_ms [serve-cached ≈ 1]
//	service.queue_wait_p{50,99}_ms (started − submitted), service.mine_wall_p50_ms → job_p99_ms, job_p50_ms of mined jobs [write traffic; no workload]
//	service.http_overhead_ms (turnaround − queue wait − wall), service.response_bytes_p50 → req_p50_ms [serve-cached]
//	service.shed_ratio → fail_ratio [serve-cached]; service.heap_inuse_mb_end, service.goroutines_end → capacity_ops_s [serve-cached]
//	store.{put,get}_result_ms   direct PutResult/GetResult on a fresh store → append and job latency with a store [write traffic; no workload]
//	store.*_persisted, store.restored_results, store.bytes_per_user_byte, store.files_end → append latency with a store [write traffic; no workload]
//	obs.overhead_ratio          traced ÷ untraced p50 of dense → mine_dense_ms [mine]
//	gen.late_p99_ms             how late the generator issued ops (closed loop: gap after the previous call)
//	ladder.{core,facade,service,http,http_store,rpc}_ms  one fresh-seed job (Mushroom at 0.3) through each layer in turn → mine_rpc_ms [mine]
//
// "Write traffic; no workload": no listed workload sends the daemon fresh
// submits, appends or a store (see the package documentation), so these
// metrics come from the probes alone. On a workload that does not exercise
// a layer, the layer's metrics come from these probes: service.* from the
// ladder's daemons, stream.* from an in-process stream.Miner, store counts
// from the ladder's daemon with a store. serve-cached overwrites the
// service.* values with what its own traffic measured.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	pfcim "github.com/probdata/pfcim"
	"github.com/probdata/pfcim/internal/bitset"
	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/obs"
	"github.com/probdata/pfcim/internal/poibin"
	"github.com/probdata/pfcim/internal/service"
	"github.com/probdata/pfcim/internal/store"
	"github.com/probdata/pfcim/internal/stream"
	"github.com/probdata/pfcim/internal/sweep"
	"github.com/probdata/pfcim/internal/uncertain"
)

// probeReps is how many times each probe repeats; probes report medians.
const probeReps = 5

// layerProbes measures every per-layer metric. env and s are the mine
// workload's own state and samples; without them (serve workloads) the
// probes set up a mine environment and run three iterations first.
func layerProbes(cfg config, rep *report, tr *tracer, env *mineEnv, s *mineSamples) error {
	if env == nil {
		e, err := newMineEnv(cfg.seed, tr)
		if err != nil {
			return err
		}
		defer e.close()
		env = e
		own := e.loop(rep, 0, 3)
		s = &own
	}
	rep.set("shard.inline_overhead", "ratio", s.class[classSharded].quantile(0.5)/s.class[classDense].quantile(0.5))

	steps := []struct {
		name string
		fn   func() error
	}{
		{"core", func() error { return probeCore(rep, env) }},
		{"poibin", func() error { probePoibin(rep, cfg.seed); return nil }},
		{"bitset", func() error { probeBitset(rep, cfg.seed); return nil }},
		{"sweep", func() error { return probeSweep(rep, env) }},
		{"shard", func() error { return probeShard(rep, env) }},
		{"stream", func() error { return probeStream(rep) }},
		{"store", func() error { return probeStore(rep, env, cfg.outDir) }},
		{"ladder", func() error { return probeLadder(rep, env, cfg.outDir) }},
	}
	for i, st := range steps {
		sp := tr.begin("probe."+st.name, 0, int64(i))
		err := st.fn()
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("probe %s: %w", st.name, err)
		}
	}
	return nil
}

// medianOf runs f reps times and returns the median duration.
func medianOf(reps int, f func()) time.Duration {
	var s samples
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		s = append(s, float64(time.Since(t0)))
	}
	return time.Duration(s.quantile(0.5))
}

func probeCore(rep *report, env *mineEnv) error {
	// Traced and untraced dense calls, alternating; the traced call with
	// the median wall time gives the phase profile.
	var traced, plain samples
	var profiles []*obs.Profile
	for i := 0; i < probeReps; i++ {
		opts := env.opts[classDense]
		t0 := time.Now()
		if _, err := core.Mine(env.mush, opts); err != nil {
			return err
		}
		plain = append(plain, ms(time.Since(t0)))
		opts.Tracer = obs.New()
		t0 = time.Now()
		res, err := core.Mine(env.mush, opts)
		if err != nil {
			return err
		}
		traced = append(traced, ms(time.Since(t0)))
		profiles = append(profiles, res.Profile)
	}
	rep.set("obs.overhead_ratio", "ratio", traced.quantile(0.5)/plain.quantile(0.5))
	mid := traced.quantile(0.5)
	best := 0
	for i, v := range traced {
		if abs(v-mid) < abs(traced[best]-mid) {
			best = i
		}
	}
	p := profiles[best]
	var sum int64
	for _, ph := range []struct{ metric, phase string }{
		{"core.phase.candidates_ms", "candidates"},
		{"core.phase.expand_ms", "expand"},
		{"core.phase.bound_check_ms", "bound-check"},
		{"core.phase.sampling_ms", "sampling"},
	} {
		ns := p.PhaseWallNS(ph.phase)
		sum += ns
		rep.set(ph.metric, "ms", float64(ns)/1e6)
	}
	sum += p.PhaseWallNS("exact-union")
	coverage := float64(sum) / 1e6 / traced[best]
	rep.set("core.phase_coverage", "ratio", coverage)
	rep.check(coverage >= 0.9 && coverage <= 1.1, "core phase self times cover %.3f of the traced dense call, want within 10%% of 1", coverage)

	// The paper options never resolve a union exactly; the daemon's default
	// checking options (MaxExactClauses 6) do.
	exact := env.opts[classDense]
	exact.MaxExactClauses = 0
	exact.Tracer = obs.New()
	res, err := core.Mine(env.mush, exact)
	if err != nil {
		return err
	}
	rep.set("core.phase.exact_union_ms", "ms", float64(res.Profile.PhaseWallNS("exact-union"))/1e6)

	dense, err := core.Mine(env.mush, env.opts[classDense])
	if err != nil {
		return err
	}
	sparse, err := core.Mine(env.quest, env.opts[classSparse])
	if err != nil {
		return err
	}
	st := dense.Stats
	rep.set("core.nodes_visited", "count", float64(st.NodesVisited))
	rep.set("core.bound_decided_ratio", "ratio", ratio(st.BoundAccepted+st.BoundRejected, st.Evaluated))
	hits := st.TailMemoHits + sparse.Stats.TailMemoHits
	evals := st.TailEvaluations + sparse.Stats.TailEvaluations
	rep.set("core.tail_memo_hit_ratio", "ratio", ratio(hits, hits+evals))
	rep.set("dnf.clauses_per_candidate", "ratio", ratio(st.ClauseEvaluated, st.Evaluated))
	rep.set("dnf.samples_drawn", "count", float64(st.SamplesDrawn))

	// Allocation per call over one full iteration of the five classes.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for c := 0; c < numClasses; c++ {
		if _, err := env.call(c); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	rep.set("core.allocs_per_op", "count", float64(after.Mallocs-before.Mallocs)/numClasses)
	rep.set("core.bytes_per_op", "bytes", float64(after.TotalAlloc-before.TotalAlloc)/numClasses)
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// probePoibin times both tail kernels on a seeded 8192-probability vector.
func probePoibin(rep *report, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const n = 8192
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = rng.Float64()
	}
	var sc poibin.Scratch
	for _, k := range []struct {
		metric string
		kern   poibin.Kernel
	}{{"poibin.tail_dp_us", poibin.KernelDP}, {"poibin.tail_conv_us", poibin.KernelConv}} {
		sc.TailKernel(probs, n/2, k.kern) // grow the kernel's buffers first
		d := medianOf(probeReps*2, func() { sc.TailKernel(probs, n/2, k.kern) })
		rep.set(k.metric, "us", float64(d)/1e3)
	}
}

// probeBitset times the batched 16-sibling intersection on 8192-bit sets
// and AND+popcount over dense and compressed forms of the same ~0.4%-dense
// 2²⁰-bit sets.
func probeBitset(rep *report, seed int64) {
	rng := rand.New(rand.NewSource(seed + 1))
	const n = 8192
	parent := bitset.New(n)
	srcs := make([]*bitset.Bitset, 16)
	dsts := make([]*bitset.Bitset, 16)
	counts := make([]int, 16)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			parent.Set(i)
		}
	}
	for j := range srcs {
		srcs[j], dsts[j] = bitset.New(n), bitset.New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				srcs[j].Set(i)
			}
		}
	}
	const big = 1 << 20
	mkset := func() *bitset.Bitset {
		b := bitset.New(big)
		for i := 0; i < big; i++ {
			if rng.Float64() < 0.004 {
				b.Set(i)
			}
		}
		return b
	}
	dx, dy := mkset(), mkset()
	sx, sy := dx.Compacted(), dy.Compacted()
	sink := 0
	perCall := func(metric string, calls int, f func()) {
		d := medianOf(probeReps, func() {
			for i := 0; i < calls; i++ {
				f()
			}
		})
		rep.set(metric, "ns", float64(d)/float64(calls))
	}
	perCall("bitset.and_batch16_ns", 2000, func() { bitset.AndBatch(dsts, counts, parent, srcs) })
	perCall("bitset.and_dense_ns", 200, func() { sink += bitset.AndCount(dx, dy) })
	perCall("bitset.and_compressed_ns", 2000, func() { sink += bitset.AndCount(sx, sy) })
	_ = sink
}

// probeSweep compares the sweep engine with five independent core.Mine
// calls over the same pfct grid.
func probeSweep(rep *report, env *mineEnv) error {
	base := env.opts[classSweep]
	var res *sweep.Result
	var err error
	engine := medianOf(3, func() {
		if err == nil {
			res, err = sweep.Mine(context.Background(), env.mush, env.sweepPts, base)
		}
	})
	if err != nil {
		return err
	}
	unions := 0
	perPoint := medianOf(3, func() {
		unions = 0
		for _, p := range env.sweepPts {
			r, e := core.Mine(env.mush, p.Apply(base))
			if e != nil {
				err = e
				return
			}
			unions += r.Stats.ExactUnions + r.Stats.Sampled
		}
	})
	if err != nil {
		return err
	}
	rep.set("sweep.full_enumerations", "count", float64(res.Stats.FullEnumerations))
	rep.set("sweep.reestimated_ratio", "ratio", ratio(res.Stats.Reestimated, unions))
	rep.set("sweep.speedup_vs_perpoint", "ratio", float64(perPoint)/float64(engine))
	if res.Stats.FullEnumerations != 1 {
		rep.mismatch("sweep ran %d full enumerations, want 1", res.Stats.FullEnumerations)
	}
	return nil
}

// probeShard runs the rpc class with the cluster's counters isolated.
func probeShard(rep *report, env *mineEnv) error {
	cl := env.cluster
	cl.obs.take()
	calls0, busy0 := cl.calls.Load(), cl.busyNS.Load()
	const mines = 3
	for i := 0; i < mines; i++ {
		out, err := env.call(classRPC)
		if err != nil {
			return err
		}
		rep.check(digest(out) == env.digests[classRPC], "rpc output differs from the set-up digest")
	}
	rep.set("shard.rpc_calls_per_mine", "count", float64(cl.calls.Load()-calls0)/mines)
	rep.set("shard.worker_busy_ms", "ms", float64(cl.busyNS.Load()-busy0)/1e6/mines)
	rep.setDist("shard.rpc_p50_ms", "ms", cl.obs.take())
	rep.set("shard.retries", "count", float64(cl.obs.retries.Load()))
	return nil
}

// Stream probe shape: a lineage root of streamRows rows, then rounds of
// streamBatch pushed rows each.
const (
	streamRows  = 300
	streamBatch = 2
)

// probeStream mines a growing window on an in-process stream.Miner.
func probeStream(rep *report) error {
	pool := mushroomDB(0.1, 100).Transactions()
	w := stream.NewUnboundedWindow()
	m, err := stream.NewMiner(w, core.Options{MinSup: core.AbsoluteMinSup(streamRows, pinnedRelSup), PFCT: 0.8})
	if err != nil {
		return err
	}
	for _, t := range pool[:streamRows] {
		if err := m.Push(t); err != nil {
			return err
		}
	}
	if _, _, err := m.MineContext(context.Background()); err != nil {
		return err
	}
	var rounds samples
	unchanged, total, reused := 0, 0, 0
	next := streamRows
	for r := 0; r < 10 && next+streamBatch <= len(pool); r++ {
		for _, t := range pool[next : next+streamBatch] {
			if err := m.Push(t); err != nil {
				return err
			}
		}
		next += streamBatch
		t0 := time.Now()
		res, diff, err := m.MineContext(context.Background())
		if err != nil {
			return err
		}
		rounds = append(rounds, ms(time.Since(t0)))
		unchanged += diff.Unchanged
		total += diff.Unchanged + len(diff.Added) + len(diff.Removed) + len(diff.Changed)
		reused += res.Stats.SubtreesReused
	}
	rep.setDist("stream.round_ms", "ms", rounds)
	rep.set("stream.unchanged_ratio", "ratio", ratio(unchanged, total))
	rep.set("stream.subtrees_reused_per_round", "count", float64(reused)/float64(len(rounds)))
	return nil
}

// probeStore times direct PutResult/GetResult on a fresh store, with the
// dense class's result JSON as the payload.
func probeStore(rep *report, env *mineEnv, outDir string) error {
	res, err := core.Mine(env.mush, env.opts[classDense])
	if err != nil {
		return err
	}
	payload, err := json.Marshal(res.JSON())
	if err != nil {
		return err
	}
	dir, err := tempDir(outDir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	const n = 20
	var put, get samples
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("probe-%d", i)
		t0 := time.Now()
		if err := st.PutResult(key, payload); err != nil {
			return err
		}
		put = append(put, ms(time.Since(t0)))
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		got, ok, err := st.GetResult(fmt.Sprintf("probe-%d", i))
		get = append(get, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		rep.check(ok && string(got) == string(payload), "store probe: result %d did not read back", i)
	}
	rep.setDist("store.put_result_ms", "ms", put)
	rep.setDist("store.get_result_ms", "ms", get)
	return nil
}

func tempDir(outDir, prefix string) (string, error) {
	root := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}

// probeLadder sends fresh-seed jobs (Mushroom at 0.3, daemon default
// checking options) through each layer in turn; each step's time is the
// median of probeReps jobs, and each layer's cost is the difference between
// neighbouring steps.
func probeLadder(rep *report, env *mineEnv, outDir string) error {
	db := env.mush
	seed := int64(5_000_000)
	opts := func() core.Options {
		seed++
		return core.Options{MinSup: core.AbsoluteMinSup(db.N(), 0.3), PFCT: 0.8, Seed: seed}
	}

	coreMS := medianOf(probeReps, func() { _, _ = core.Mine(db, opts()) })
	rep.set("ladder.core_ms", "ms", ms(coreMS))
	facade := medianOf(probeReps, func() { _, _ = pfcim.MineContext(context.Background(), db, opts()) })
	rep.set("ladder.facade_ms", "ms", ms(facade))

	// In-process service: Manager.Submit until the job is finished.
	plain, err := startDaemon(service.Config{})
	if err != nil {
		return err
	}
	defer plain.close()
	ds, _, err := plain.srv.Registry().Register(db, false)
	if err != nil {
		return err
	}
	var svc samples
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		info, err := plain.srv.Jobs().Submit(ds, ds.ID, opts().JSON(), 0)
		if err != nil {
			return err
		}
		done, err := minedJob(plain.srv, info.ID)
		if err != nil {
			return err
		}
		svc = append(svc, ms(done.FinishedAt.Sub(t0)))
	}
	rep.set("ladder.service_ms", "ms", svc.quantile(0.5))

	storeDir, err := tempDir(outDir, "ladder-store-")
	if err != nil {
		return err
	}
	durable, err := startDaemon(service.Config{StoreDir: storeDir})
	if err != nil {
		os.RemoveAll(storeDir)
		return err
	}
	defer durable.close()
	coord, err := startDaemon(service.Config{ShardWorkers: env.cluster.addrs})
	if err != nil {
		return err
	}
	defer coord.close()

	hc := httpClient()
	defer hc.CloseIdleConnections()
	var bytesSeen, overhead samples
	for _, step := range []struct {
		metric string
		d      *daemon
	}{{"ladder.http_ms", plain}, {"ladder.http_store_ms", durable}, {"ladder.rpc_ms", coord}} {
		e := &serveEnv{d: step.d, hc: hc}
		id, err := e.register(db)
		if err != nil {
			return err
		}
		var times samples
		for i := 0; i < probeReps; i++ {
			sent := time.Now()
			code, info, err := e.submit("/v1/jobs", map[string]any{"dataset": id, "options": opts().JSON()})
			if err != nil || code != 202 {
				return fmt.Errorf("%s submit: HTTP %d: %v", step.metric, code, err)
			}
			done, err := minedJob(step.d.srv, info.ID)
			if err != nil {
				return err
			}
			times = append(times, ms(done.FinishedAt.Sub(sent)))
			overhead = append(overhead, ms(done.FinishedAt.Sub(sent)-done.StartedAt.Sub(done.SubmittedAt)-done.FinishedAt.Sub(*done.StartedAt)))
			_, body, err := call(hc, "GET", step.d.base+"/v1/jobs/"+info.ID, "", nil)
			if err != nil {
				return err
			}
			bytesSeen = append(bytesSeen, float64(len(body)))
		}
		rep.set(step.metric, "ms", times.quantile(0.5))
	}

	// Service and store layer metrics as the ladder's daemons saw them.
	var wait, wall samples
	for _, d := range []*daemon{plain, durable, coord} {
		for _, info := range d.srv.Jobs().List() {
			if info.StartedAt != nil && info.FinishedAt != nil {
				wait = append(wait, ms(info.StartedAt.Sub(info.SubmittedAt)))
				wall = append(wall, ms(info.FinishedAt.Sub(*info.StartedAt)))
			}
		}
	}
	m := durable.srv.Metrics()
	rep.set("service.cache_hit_ratio", "ratio", ratio(int(m["cache_hits"]), int(m["cache_hits"]+m["cache_misses"])))
	rep.setQuantile("service.queue_wait_p50_ms", "ms", wait, 0.5)
	rep.setQuantile("service.queue_wait_p99_ms", "ms", wait, 0.99)
	rep.setDist("service.mine_wall_p50_ms", "ms", wall)
	rep.setDist("service.http_overhead_ms", "ms", overhead)
	rep.setQuantile("service.response_bytes_p50", "bytes", bytesSeen, 0.5)
	rep.set("service.shed_ratio", "ratio", float64(m["jobs_shed_queue_full"]+m["jobs_shed_quota"])/float64(m["cache_hits"]+m["cache_misses"]))
	var rt runtime.MemStats
	runtime.ReadMemStats(&rt)
	rep.set("service.heap_inuse_mb_end", "MiB", float64(rt.HeapInuse)/(1<<20))
	rep.set("service.goroutines_end", "count", float64(runtime.NumGoroutine()))
	var text bytes.Buffer
	if err := uncertain.Write(&text, db); err != nil {
		return err
	}
	reportStore(rep, durable, int64(text.Len()))
	return nil
}

// minedJob waits for a ladder job and requires that it was mined.
func minedJob(srv *service.Server, id string) (service.JobInfo, error) {
	info, err := waitJob(srv, id, time.Now().Add(time.Minute))
	if err == nil && (info.Status != service.StatusDone || info.StartedAt == nil) {
		err = fmt.Errorf("job %s ended %s: %s", id, info.Status, info.Error)
	}
	return info, err
}

// reportStore reports a daemon's store counts and footprint. The
// user bytes are the uploaded dataset text plus the JSON of every result
// the daemon mined.
func reportStore(rep *report, d *daemon, uploaded int64) {
	m := d.srv.Metrics()
	rep.set("store.results_persisted", "count", float64(m["store_results_persisted"]))
	rep.set("store.datasets_persisted", "count", float64(m["store_datasets_persisted"]))
	rep.set("store.lineages_persisted", "count", float64(m["store_lineages_persisted"]))
	rep.set("store.restored_results", "count", float64(m["store_restored_results"]))
	files, size := dirUsage(d.dir)
	rep.set("store.files_end", "count", float64(files))
	user := uploaded
	for _, info := range d.srv.Jobs().List() {
		if info.Cached {
			continue
		}
		full, err := d.srv.Jobs().Get(info.ID)
		if err != nil {
			continue
		}
		if full.Result != nil {
			b, _ := json.Marshal(full.Result)
			user += int64(len(b))
		}
		if full.Sweep != nil {
			for _, pt := range full.Sweep.Points {
				b, _ := json.Marshal(pt.Itemsets)
				user += int64(len(b))
			}
		}
	}
	if user > 0 {
		rep.set("store.bytes_per_user_byte", "ratio", float64(size)/float64(user))
	}
}

// dirUsage counts the regular files under dir and their total size.
func dirUsage(dir string) (int, int64) {
	var files int
	var size int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if fi, err := d.Info(); err == nil {
			files++
			size += fi.Size()
		}
		return nil
	})
	return files, size
}
