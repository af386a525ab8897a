package core

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/probdata/pfcim/internal/itemset"
)

// TestDequeOrdering pins the work-stealing discipline: the owner pops the
// newest task (depth-first, cache-warm), a thief takes the oldest (the
// shallowest, hence largest, subtree).
func TestDequeOrdering(t *testing.T) {
	s := newScheduler(2)
	w, thief := s.workers[0], s.workers[1]
	for i := 1; i <= 3; i++ {
		w.push(task{startPos: i})
	}
	if got, ok := thief.stealFrom(w); !ok || got.startPos != 1 {
		t.Fatalf("steal got startPos=%d ok=%v, want oldest (1)", got.startPos, ok)
	}
	if got, ok := w.pop(); !ok || got.startPos != 3 {
		t.Fatalf("pop got startPos=%d ok=%v, want newest (3)", got.startPos, ok)
	}
	if got, ok := w.pop(); !ok || got.startPos != 2 {
		t.Fatalf("pop got startPos=%d ok=%v, want 2", got.startPos, ok)
	}
	if _, ok := w.pop(); ok {
		t.Fatal("pop from empty deque succeeded")
	}
	if _, ok := thief.stealFrom(w); ok {
		t.Fatal("steal from empty deque succeeded")
	}
}

// TestSchedulerAbortKeepsFirstError: concurrent failures must surface the
// first error and flip the pool into drain mode.
func TestSchedulerAbortKeepsFirstError(t *testing.T) {
	s := newScheduler(1)
	first, second := errors.New("first"), errors.New("second")
	s.abort(first)
	s.abort(second)
	if s.firstErr != first {
		t.Fatalf("firstErr = %v, want %v", s.firstErr, first)
	}
}

// TestParallelSpawnsTasks: a parallel run seeds the pool with every
// first-level subtree, so TasksSpawned covers at least the candidate items.
func TestParallelSpawnsTasks(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db := randomDB(rng, 18, 8)
	res, err := Mine(db, Options{MinSup: 2, PFCT: 0.3, Seed: 3, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TasksSpawned < res.Stats.CandidateItems {
		t.Fatalf("TasksSpawned = %d < CandidateItems = %d", res.Stats.TasksSpawned, res.Stats.CandidateItems)
	}
}

// TestNodeSeedStability: the per-node sampler seed is a pure function of
// (run seed, itemset) and separates both inputs.
func TestNodeSeedStability(t *testing.T) {
	a := itemset.Itemset{1, 5, 9}
	if nodeSeed(7, a) != nodeSeed(7, itemset.Itemset{1, 5, 9}) {
		t.Error("nodeSeed not deterministic")
	}
	if nodeSeed(7, a) == nodeSeed(8, a) {
		t.Error("nodeSeed ignores the run seed")
	}
	if nodeSeed(7, a) == nodeSeed(7, itemset.Itemset{1, 5}) {
		t.Error("nodeSeed ignores the itemset suffix")
	}
	if nodeSeed(7, itemset.Itemset{1, 2}) == nodeSeed(7, itemset.Itemset{2, 1}) {
		// Itemsets are canonically sorted, so this collision could only be
		// hit through a bug in the enumeration; keep the property anyway.
		t.Error("nodeSeed is order-insensitive")
	}
}
