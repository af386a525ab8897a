package stream

import (
	"fmt"

	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/poibin"
)

// Maintained per-item tails (DESIGN §15). With tracking active at minSup k,
// the window keeps one truncated Poisson-binomial PMF per live item:
// arrivals fold in with poibin.UpdatePMF (O(k), bit-identical to the batch
// DP), evictions remove their probability with poibin.Deconvolve (O(k)) and
// fall back to an exact from-scratch rebuild when the deconvolution reports
// that cancellation would exceed its verified tolerance. FreqProb and
// FrequentItemsContext then answer Pr[sup ≥ k] in O(1) per item instead of
// re-running an O(n·k) dynamic program over the item's probability vector.

// TailStats counts the incremental-maintenance outcomes since TrackTails.
type TailStats struct {
	Updates      int // arrivals folded in with UpdatePMF
	Deconvolved  int // evictions removed incrementally
	Rebuilds     int // evictions that fell back to a from-scratch DP
	TrackedItems int // items currently carrying a maintained PMF
}

// TrackTails switches on maintained per-item tails at threshold minSup
// (≥ 1), building the PMFs of the current window content from scratch.
// Calling it again with a different threshold rebuilds; with the same
// threshold it is a no-op. Tracking costs O(k) per item occurrence on every
// Push.
func (w *Window) TrackTails(minSup int) error {
	if minSup < 1 {
		return fmt.Errorf("stream: tracked MinSup must be ≥ 1, got %d", minSup)
	}
	if w.tailK == minSup {
		return nil
	}
	w.tailK = minSup
	w.tailStats = TailStats{}
	w.tails = make(map[itemset.Item][]float64, len(w.count))
	for it := range w.count {
		w.rebuildTail(it)
	}
	return nil
}

// TrackedMinSup returns the threshold tails are maintained at, 0 when off.
func (w *Window) TrackedMinSup() int { return w.tailK }

// TailStats returns the maintenance counters since TrackTails.
func (w *Window) TailStats() TailStats {
	s := w.tailStats
	s.TrackedItems = len(w.tails)
	return s
}

// addTail folds one arrival's probability into the item's maintained PMF.
// Items scheduled for rebuild this Push are skipped — the rebuild at the
// end of Push reads the final window state, new arrival included.
func (w *Window) addTail(it itemset.Item, p float64) {
	for _, r := range w.tailRebuild {
		if r == it {
			return
		}
	}
	v, ok := w.tails[it]
	if !ok {
		v = poibin.NewPMF()
	}
	w.tails[it] = poibin.UpdatePMF(v, p, w.tailK)
	w.tailStats.Updates++
}

// dropTail removes one evicted occurrence from the item's maintained PMF.
// n is the item's occurrence count before the eviction (the number of
// probabilities folded into the PMF). When deconvolution refuses — certain
// tuples on absorbing vectors, or regimes where cancellation would exceed
// tolerance — the item is queued for an exact rebuild once the Push's ring
// update completes.
func (w *Window) dropTail(it itemset.Item, p float64, n int) {
	if n <= 1 {
		delete(w.tails, it)
		return
	}
	v, ok := w.tails[it]
	if !ok {
		return
	}
	if nv, ok := poibin.Deconvolve(v, n, p, w.tailK); ok {
		w.tails[it] = nv
		w.tailStats.Deconvolved++
		return
	}
	w.tailRebuild = append(w.tailRebuild, it)
}

// flushTailRebuilds re-derives the queued items' PMFs from the live window.
func (w *Window) flushTailRebuilds() {
	if len(w.tailRebuild) == 0 {
		return
	}
	for _, it := range w.tailRebuild {
		w.rebuildTail(it)
		w.tailStats.Rebuilds++
	}
	w.tailRebuild = w.tailRebuild[:0]
}

// rebuildTail computes the item's PMF from scratch over the live window.
func (w *Window) rebuildTail(it itemset.Item) {
	if w.count[it] == 0 {
		delete(w.tails, it)
		return
	}
	v := poibin.NewPMF()
	for _, p := range w.itemProbs(it) {
		v = poibin.UpdatePMF(v, p, w.tailK)
	}
	w.tails[it] = v
}
