package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/gen"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/shard"
	"github.com/probdata/pfcim/internal/sweep"
	"github.com/probdata/pfcim/internal/uncertain"
	"github.com/probdata/pfcim/internal/world"
)

// The five call classes of one mine iteration, in execution order.
const (
	classDense = iota
	classSparse
	classSweep
	classSharded
	classRPC
	numClasses
)

var classNames = [numClasses]string{"dense", "sparse", "sweep", "sharded", "rpc"}

// classMetric is the end-to-end metric name of each class's p50.
var classMetric = [numClasses]string{"mine_dense_ms", "mine_sparse_ms", "sweep_ms", "mine_sharded_ms", "mine_rpc_ms"}

// rpcDataset is the id the rpc class's database is placed under.
const rpcDataset = "mushroom"

// paperOptions are the paper's operating options at a relative min_sup.
func paperOptions(db *uncertain.DB, rel float64, seed int64) core.Options {
	return core.Options{
		MinSup:          core.AbsoluteMinSup(db.N(), rel),
		PFCT:            0.8,
		Epsilon:         0.1,
		Delta:           0.1,
		Seed:            seed,
		MaxExactClauses: -1,
		Parallelism:     1,
	}
}

// mushroomDB and questDB generate the two paper datasets as the experiments
// do by default (generator seed 0), with the rows shuffled by the run seed.
// At these scales the generator seed alone moves mining cost by more than
// 10× (how many candidates reach the Monte-Carlo check varies), so a seeded
// generator would measure the seed rather than the code; a row order
// changes every tidset, shard range and tail-evaluation order while
// keeping the mining problem, and so its cost, the same.
func mushroomDB(scale float64, seed int64) *uncertain.DB {
	return shuffled(gen.AssignGaussian(gen.MushroomLike(scale, 1), 0.5, 0.5, 3), seed)
}

func questDB(seed int64) *uncertain.DB {
	return shuffled(gen.AssignGaussian(gen.Quest(gen.QuestT20I10D30KP40(0.02, 2)), 0.8, 0.1, 4), seed)
}

func shuffled(db *uncertain.DB, seed int64) *uncertain.DB {
	trans := db.Transactions()
	rand.New(rand.NewSource(seed)).Shuffle(len(trans), func(i, j int) { trans[i], trans[j] = trans[j], trans[i] })
	return uncertain.MustNewDB(trans)
}

// mineEnv is the mine workload's set-up state.
type mineEnv struct {
	mush, quest *uncertain.DB
	opts        [numClasses]core.Options
	sweepPts    []sweep.Point
	cluster     *shardCluster
	digests     [numClasses]string
	tr          *tracer // spans around calls (nil when untraced)
	curOp       atomic.Int64
	curSpan     atomic.Int64
}

func newMineEnv(seed int64, tr *tracer) (*mineEnv, error) {
	e := &mineEnv{mush: mushroomDB(0.1, seed), quest: questDB(seed), tr: tr}
	e.opts[classDense] = paperOptions(e.mush, 0.2, seed)
	e.opts[classSparse] = paperOptions(e.quest, 0.4, seed)
	e.opts[classSweep] = paperOptions(e.mush, 0.2, seed)
	e.opts[classSharded] = paperOptions(e.mush, 0.2, seed)
	e.opts[classSharded].Shards = 4
	e.opts[classRPC] = paperOptions(e.mush, 0.3, seed)
	e.opts[classRPC].Shards = 2
	for _, p := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		e.sweepPts = append(e.sweepPts, sweep.Point{PFCT: p})
	}
	cl, err := startShardCluster(2, e)
	if err != nil {
		return nil, err
	}
	e.cluster = cl
	if err := cl.client.Place(context.Background(), rpcDataset, e.mush, 2); err != nil {
		e.close()
		return nil, fmt.Errorf("placing rpc dataset: %w", err)
	}
	// Warm-up: one call per class, whose outputs every later call must
	// reproduce exactly.
	for c := 0; c < numClasses; c++ {
		out, err := e.call(c)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up %s: %w", classNames[c], err)
		}
		e.digests[c] = digest(out)
	}
	return e, nil
}

func (e *mineEnv) close() {
	if e != nil && e.cluster != nil {
		e.cluster.close()
	}
}

// call runs one class and returns the canonical JSON of its output: the
// full core.ResultJSON for mining calls, the per-point itemsets for the
// sweep.
func (e *mineEnv) call(c int) ([]byte, error) {
	opts := e.opts[c]
	switch c {
	case classSweep:
		res, err := sweep.Mine(context.Background(), e.mush, e.sweepPts, opts)
		if err != nil {
			return nil, err
		}
		return sweepItemsetsJSON(res)
	case classRPC:
		ctx, cancel := context.WithCancelCause(context.Background())
		defer cancel(nil)
		sess, err := e.cluster.client.Kernel(ctx, cancel, rpcDataset)
		if err != nil {
			return nil, err
		}
		opts.ShardKernel = sess
		res, err := core.MineContext(ctx, e.mush, opts)
		if err != nil {
			return nil, err
		}
		if cause := context.Cause(ctx); cause != nil {
			return nil, cause
		}
		return json.Marshal(res.JSON())
	}
	db := e.mush
	if c == classSparse {
		db = e.quest
	}
	res, err := core.Mine(db, opts)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res.JSON())
}

func sweepItemsetsJSON(res *sweep.Result) ([]byte, error) {
	pts := make([][]core.ResultItemJSON, len(res.Points))
	for i, pr := range res.Points {
		pts[i] = pr.CoreJSON().Itemsets
	}
	return json.Marshal(pts)
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkSetup runs the set-up correctness gates; each failed gate is a
// mismatch in the report.
func (e *mineEnv) checkSetup(rep *report) error {
	// Sweep points are byte-identical to independent core.Mine calls.
	res, err := sweep.Mine(context.Background(), e.mush, e.sweepPts, e.opts[classSweep])
	if err != nil {
		return err
	}
	for i, p := range e.sweepPts {
		direct, err := core.Mine(e.mush, p.Apply(e.opts[classSweep]))
		if err != nil {
			return err
		}
		got, _ := json.Marshal(res.Points[i].CoreJSON().Itemsets)
		want, _ := json.Marshal(direct.JSON().Itemsets)
		rep.check(string(got) == string(want), "sweep point pfct=%g differs from an independent core.Mine", p.PFCT)
	}

	// rpc is byte-identical to the in-process fold at the same Shards.
	rpcOut, err := e.call(classRPC)
	if err != nil {
		return err
	}
	var rpcRes core.ResultJSON
	if err := json.Unmarshal(rpcOut, &rpcRes); err != nil {
		return err
	}
	fold, err := core.Mine(e.mush, e.opts[classRPC])
	if err != nil {
		return err
	}
	got, _ := json.Marshal(rpcRes.Itemsets)
	want, _ := json.Marshal(fold.JSON().Itemsets)
	rep.check(string(got) == string(want), "rpc result differs from the in-process fold at Shards %d", e.opts[classRPC].Shards)

	// sharded matches unsharded within 1e-9.
	dense, err := core.Mine(e.mush, e.opts[classDense])
	if err != nil {
		return err
	}
	sharded, err := core.Mine(e.mush, e.opts[classSharded])
	if err != nil {
		return err
	}
	msg := closeItemsets(dense.Itemsets, sharded.Itemsets, 1e-9)
	rep.check(msg == "", "sharded vs unsharded: %s", msg)

	// The Table II anchor matches the possible-world oracle.
	db := uncertain.PaperExample()
	anchor, err := core.Mine(db, core.Options{MinSup: 2, PFCT: 0.8})
	if err != nil {
		return err
	}
	oracle, err := world.MineExact(db, 2, 0.8)
	if err != nil {
		return err
	}
	msg = matchOracle(anchor.Itemsets, oracle)
	rep.check(msg == "", "Table II anchor vs world oracle: %s", msg)
	return nil
}

// closeItemsets compares two results by itemset identity and every reported
// probability within tol; it returns "" when they agree.
func closeItemsets(a, b []core.ResultItem, tol float64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d itemsets", len(a), len(b))
	}
	for i := range a {
		if !itemset.Equal(a[i].Items, b[i].Items) {
			return fmt.Sprintf("itemset %d: %v vs %v", i, a[i].Items, b[i].Items)
		}
		for _, d := range []float64{a[i].Prob - b[i].Prob, a[i].Lower - b[i].Lower, a[i].Upper - b[i].Upper, a[i].FreqProb - b[i].FreqProb} {
			if math.Abs(d) > tol {
				return fmt.Sprintf("itemset %v differs by %g", a[i].Items, d)
			}
		}
	}
	return ""
}

// matchOracle checks mined itemsets against the exact possible-world
// answer: identical itemsets, exact values within 1e-9, and bound-decided
// values bracketing the oracle.
func matchOracle(got []core.ResultItem, want []world.Result) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d vs %d itemsets", len(got), len(want))
	}
	for i, r := range got {
		if !itemset.Equal(r.Items, want[i].Items) {
			return fmt.Sprintf("itemset %d: %v vs oracle %v", i, r.Items, want[i].Items)
		}
		p := want[i].Prob
		switch r.Method {
		case core.MethodExact, core.MethodNoClauses:
			if math.Abs(r.Prob-p) > 1e-9 {
				return fmt.Sprintf("%v: %v vs oracle %v", r.Items, r.Prob, p)
			}
		default:
			if p < r.Lower-1e-9 || p > r.Upper+1e-9 {
				return fmt.Sprintf("%v: oracle %v outside [%v, %v]", r.Items, p, r.Lower, r.Upper)
			}
		}
	}
	return ""
}

// mineLoop runs the closed loop for d and returns per-class and
// per-iteration call times (ms) plus the generator's own delay between one
// call's end and the next call's start.
type mineSamples struct {
	class [numClasses]samples
	iter  samples
	late  samples
}

func (e *mineEnv) loop(rep *report, d time.Duration, minIters int) mineSamples {
	var s mineSamples
	deadline := time.Now().Add(d)
	prevEnd := time.Time{}
	for it := 0; it < minIters || time.Now().Before(deadline); it++ {
		opSpan := e.tr.begin("mine.iteration", 0, int64(it))
		e.curOp.Store(int64(it))
		var total float64
		for c := 0; c < numClasses; c++ {
			sp := e.tr.begin("mine."+classNames[c], opSpan, int64(it))
			e.curSpan.Store(sp)
			t0 := time.Now()
			if !prevEnd.IsZero() {
				s.late = append(s.late, ms(t0.Sub(prevEnd)))
			}
			out, err := e.call(c)
			t1 := time.Now()
			prevEnd = t1
			e.tr.end(sp)
			dt := ms(t1.Sub(t0))
			total += dt
			s.class[c] = append(s.class[c], dt)
			if err != nil {
				rep.mismatch("%s call failed: %v", classNames[c], err)
			} else {
				rep.check(digest(out) == e.digests[c], "%s output differs from the set-up digest", classNames[c])
			}
		}
		e.tr.end(opSpan)
		s.iter = append(s.iter, total)
	}
	return s
}

func runMine(cfg config, rep *report) error {
	tr := newTracer(cfg.trace)
	env, err := timeSetups(rep, cfg.setupReps,
		func() (*mineEnv, error) { return newMineEnv(cfg.seed, tr) },
		func(e *mineEnv) { e.close() })
	if err != nil {
		return err
	}
	defer env.close()
	if err := env.checkSetup(rep); err != nil {
		return err
	}
	s := env.loop(rep, time.Duration(cfg.seconds)*time.Second, 3)
	for c := 0; c < numClasses; c++ {
		rep.setDist(classMetric[c], "ms", s.class[c])
	}
	// An op is one iteration (the five calls); capacity counts mining calls
	// completed per second by the single closed-loop caller, at the median
	// iteration time.
	rep.setDist("op_p50_ms", "ms", s.iter)
	rep.set("capacity_ops_s", "ops/s", numClasses*1000/s.iter.quantile(0.5))
	if cfg.trace {
		rep.setQuantile("gen.late_p99_ms", "ms", s.late, 0.99)
		if err := layerProbes(cfg, rep, tr, env, &s); err != nil {
			return err
		}
		rep.Spans = tr.done()
	}
	return nil
}

// shardCluster is a set of in-process shard workers on loopback plus the
// coordinator-side client, instrumented from outside: a counting wrapper
// around each worker handler and an Observer on the client.
type shardCluster struct {
	servers []*http.Server
	addrs   []string
	wg      sync.WaitGroup
	client  *shard.Client
	obs     *shardObserver
	calls   atomic.Int64
	busyNS  atomic.Int64
}

// shardObserver records the client's RPC attempt latencies and retries.
type shardObserver struct {
	mu      sync.Mutex
	rpcMS   samples
	retries atomic.Int64
}

func (o *shardObserver) ShardRPC(d time.Duration) {
	o.mu.Lock()
	o.rpcMS = append(o.rpcMS, ms(d))
	o.mu.Unlock()
}
func (o *shardObserver) ShardRetry()                 { o.retries.Add(1) }
func (o *shardObserver) WorkerUp(string, bool)       {}
func (o *shardObserver) WorkerRemoved(string)        {}
func (o *shardObserver) ShardEvalStats(int64, int64) {}
func (o *shardObserver) PlacementDone(string, int)   {}

func (o *shardObserver) take() samples {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.rpcMS
	o.rpcMS = nil
	return s
}

func discardLogger() *slog.Logger { return slog.New(slog.NewJSONHandler(io.Discard, nil)) }

// startShardCluster starts n shard workers on loopback listeners. env, when
// set, parents each worker request's span on the call in flight.
func startShardCluster(n int, env *mineEnv) (*shardCluster, error) {
	cl := &shardCluster{obs: &shardObserver{}}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cl.close()
			return nil, err
		}
		w := shard.NewWorker(discardLogger())
		h := http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			var sp int64
			if env != nil {
				sp = env.tr.begin("shard.worker", env.curSpan.Load(), env.curOp.Load())
			}
			t0 := time.Now()
			w.ServeHTTP(rw, req)
			cl.busyNS.Add(int64(time.Since(t0)))
			cl.calls.Add(1)
			if env != nil {
				env.tr.end(sp)
			}
		})
		srv := &http.Server{Handler: h}
		cl.servers = append(cl.servers, srv)
		cl.wg.Add(1)
		go func() {
			defer cl.wg.Done()
			_ = srv.Serve(ln) // returns http.ErrServerClosed on close
		}()
		cl.addrs = append(cl.addrs, ln.Addr().String())
	}
	client, err := shard.NewClient(cl.addrs, 0, cl.obs)
	if err != nil {
		cl.close()
		return nil, err
	}
	cl.client = client
	return cl, nil
}

func (cl *shardCluster) close() {
	for _, s := range cl.servers {
		_ = s.Close() // loopback test servers; nothing to flush
	}
	cl.wg.Wait()
}
