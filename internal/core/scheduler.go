package core

import (
	"sync"
	"sync/atomic"

	"github.com/probdata/pfcim/internal/bitset"
	"github.com/probdata/pfcim/internal/itemset"
)

// Work-stealing parallel DFS.
//
// The enumeration tree of MPFCI is heavily skewed: a handful of first-level
// subtrees (the most frequent items) hold almost all of the work, so the
// old first-level-only fan-out left most workers idle once their small
// subtrees drained. Here every worker owns a deque of subtree tasks; it
// pops from the back (LIFO — depth-first order, cache-warm) and steals from
// the front of a victim's deque (FIFO — the shallowest, i.e. largest,
// subtree available). Splitting is demand-driven: a node only turns a child
// into a task when it is shallow enough (splitDepth) and some worker is
// currently starving, so the common case stays a plain recursive call with
// zero synchronization.
//
// Determinism: the set of nodes visited, every pruning decision, and every
// evaluation verdict depend only on the data and the options — sampling
// seeds derive from (Options.Seed, node prefix), see rng.go — so results
// and all Stats counters except TasksSpawned/TasksStolen are byte-identical
// for every Parallelism setting and every scheduling interleaving.

// task is one enumeration subtree handed to the pool: the root node's
// itemset, its tidset (owned by the task), count, exact frequent
// probability, and the first candidate position of its extensions.
type task struct {
	items    itemset.Itemset
	tids     *bitset.Bitset
	count    int
	prF      float64
	startPos int
}

// scheduler coordinates the worker pool of one parallel mining run.
type scheduler struct {
	workers []*worker

	pending atomic.Int64 // tasks queued or running
	idle    int32        // atomic: workers currently out of local work
	stop    int32        // atomic: set on the first error; queued tasks drain unrun

	mu       sync.Mutex
	cond     *sync.Cond
	seq      int64 // bumped on every state change workers may wait for
	firstErr error
}

func newScheduler(n int) *scheduler {
	s := &scheduler{}
	s.cond = sync.NewCond(&s.mu)
	s.workers = make([]*worker, n)
	for i := range s.workers {
		s.workers[i] = &worker{sched: s}
	}
	return s
}

// bump wakes every parked worker after a state change (new task, pool
// drained, abort).
func (s *scheduler) bump() {
	s.mu.Lock()
	s.seq++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// snapshot returns the current change counter; waitChange blocks until it
// moves past the snapshot, so a wake between snapshot and wait is never
// lost.
func (s *scheduler) snapshot() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

func (s *scheduler) waitChange(seen int64) {
	s.mu.Lock()
	for s.seq == seen {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// abort records the first error and flips the pool into drain mode.
func (s *scheduler) abort(err error) {
	s.mu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.mu.Unlock()
	atomic.StoreInt32(&s.stop, 1)
	s.bump()
}

func (s *scheduler) idleWorkers() int32 { return atomic.LoadInt32(&s.idle) }

// worker is one pool member: a shared-nothing sub-miner (own results,
// stats, scratch freelists) plus a mutex-guarded deque.
type worker struct {
	sched *scheduler
	sub   *miner
	mu    sync.Mutex
	deque []task
}

// push enqueues a task at the back of the worker's own deque. pending is
// incremented before the task becomes visible so the pool can never look
// drained while work is in flight.
func (w *worker) push(t task) {
	w.sched.pending.Add(1)
	w.mu.Lock()
	w.deque = append(w.deque, t)
	w.mu.Unlock()
	w.sched.bump()
}

// pop takes the newest task from the worker's own deque (LIFO).
func (w *worker) pop() (task, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.deque); n > 0 {
		t := w.deque[n-1]
		w.deque[n-1] = task{}
		w.deque = w.deque[:n-1]
		return t, true
	}
	return task{}, false
}

// stealFrom takes the oldest task from a victim's deque (FIFO): the
// shallowest node, hence the biggest subtree.
func (w *worker) stealFrom(v *worker) (task, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.deque) > 0 {
		t := v.deque[0]
		copy(v.deque, v.deque[1:])
		v.deque[len(v.deque)-1] = task{}
		v.deque = v.deque[:len(v.deque)-1]
		return t, true
	}
	return task{}, false
}

// run is the worker loop: drain own deque, then hunt (steal or park) until
// the pool is empty.
func (w *worker) run() {
	for {
		t, ok := w.pop()
		if !ok {
			t, ok = w.hunt()
			if !ok {
				return
			}
		}
		w.execute(t)
	}
}

// hunt looks for work on other deques, parking between attempts. It
// returns false once the pool has no queued or running tasks left — at
// that point no new task can ever appear.
func (w *worker) hunt() (task, bool) {
	s := w.sched
	atomic.AddInt32(&s.idle, 1)
	defer atomic.AddInt32(&s.idle, -1)
	for {
		seen := s.snapshot()
		for _, v := range s.workers {
			if v == w {
				continue
			}
			if t, ok := w.stealFrom(v); ok {
				w.sub.stats.TasksStolen++
				return t, true
			}
		}
		if s.pending.Load() == 0 {
			return task{}, false
		}
		s.waitChange(seen)
	}
}

// execute runs one subtree to completion on this worker's sub-miner.
func (w *worker) execute(t task) {
	s := w.sched
	if atomic.LoadInt32(&s.stop) == 0 {
		if err := w.sub.probFC(t.items, t.tids, t.count, t.prF, t.startPos); err != nil {
			s.abort(err)
		}
	}
	if s.pending.Add(-1) == 0 {
		s.bump()
	}
}

// splitDepth bounds how deep in the enumeration tree a node may still hand
// children to idle workers: a child is spawned as a task only when its
// parent has fewer than splitDepth items and some worker is starving.
// Deeper nodes always recurse inline, so the common case pays no
// synchronization.
const splitDepth = 4

// spawnable reports whether a child at the given parent depth should be
// handed to the pool instead of descended into inline.
func (m *miner) spawnable(parentDepth int) bool {
	w := m.worker
	return w != nil && parentDepth < splitDepth && w.sched.idleWorkers() > 0
}

// mineDFSParallel distributes the enumeration tree over the work-stealing
// pool. Each worker owns an independent sub-miner; results and stats merge
// after the pool drains. The result set, probabilities and deterministic
// stats are byte-identical to a serial run (see rng.go).
func (m *miner) mineDFSParallel() error {
	s := newScheduler(m.opts.Parallelism)
	for i, w := range s.workers {
		sub := &miner{
			opts:       m.opts,
			db:         m.db,
			probs:      m.probs,
			certainAll: m.certainAll,
			certain:    m.certain,
			allItems:   m.allItems,
			allTids:    m.allTids,
			cands:      m.cands,
			ctx:        m.ctx,
			// Pool worker i records as tracer worker i+1; recorder 0 stays
			// with the coordinating miner (candidate phase). Per-worker
			// recorders are single-writer, so tracing composes with
			// work-stealing without locks.
			rec: m.opts.Tracer.Recorder(i + 1),
		}
		sub.worker = w
		w.sub = sub
	}
	// Seed the deques with the first-level subtrees, round-robin so every
	// worker starts with local work; stealing and splitting rebalance the
	// skew from there.
	for pos, c := range m.cands {
		s.workers[pos%len(s.workers)].push(task{
			items:    itemset.Itemset{c.item},
			tids:     c.tids.Clone(),
			count:    c.cnt,
			prF:      c.prF,
			startPos: pos + 1,
		})
		s.workers[pos%len(s.workers)].sub.stats.TasksSpawned++
	}
	var wg sync.WaitGroup
	for _, w := range s.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run()
		}(w)
	}
	wg.Wait()
	for _, w := range s.workers {
		m.results = append(m.results, w.sub.results...)
		m.stats.add(w.sub.stats)
	}
	return s.firstErr
}
