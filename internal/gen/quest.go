// Package gen produces the synthetic workloads of the paper's evaluation:
// an IBM-Quest-style transaction generator (the T20I10D30KP40 dataset), a
// Mushroom-like dense categorical generator (standing in for the real
// Mushroom dataset, which is not redistributable here), and the Gaussian
// existence-probability assignment that turns exact data into uncertain
// data. All generators are deterministic given their seed.
package gen

import (
	"math"
	"math/rand"
	"sort"

	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/uncertain"
)

// QuestConfig parameterizes the IBM Quest synthetic generator of Agrawal &
// Srikant [5]. The paper's dataset T20I10D30KP40 corresponds to
// AvgTransLen=20, AvgPatternLen=10, NumTrans=30000, NumItems=40.
type QuestConfig struct {
	NumTrans      int     // D: number of transactions
	NumItems      int     // P: number of distinct items
	AvgTransLen   float64 // T: average transaction length
	AvgPatternLen float64 // I: average length of maximal potentially frequent itemsets
	NumPatterns   int     // L: size of the potentially-frequent itemset pool (default NumItems/2, min 10)
	Corruption    float64 // mean corruption level (default 0.5)
	Seed          int64
}

func (c QuestConfig) withDefaults() QuestConfig {
	if c.NumPatterns == 0 {
		c.NumPatterns = c.NumItems / 2
		if c.NumPatterns < 10 {
			c.NumPatterns = 10
		}
	}
	if c.Corruption == 0 {
		c.Corruption = 0.5
	}
	return c
}

// QuestT20I10D30KP40 returns the configuration of the paper's synthetic
// dataset at the given scale factor: scale = 1 is the full 30 000
// transactions; smaller scales shrink only the transaction count, keeping
// the distributional parameters fixed.
func QuestT20I10D30KP40(scale float64, seed int64) QuestConfig {
	n := int(30000 * scale)
	if n < 1 {
		n = 1
	}
	return QuestConfig{
		NumTrans:      n,
		NumItems:      40,
		AvgTransLen:   20,
		AvgPatternLen: 10,
		Seed:          seed,
	}
}

// QuestT10I4D1MP2K returns a sparse, large-n stress configuration: one
// million short transactions (scale 1) over 2000 items with average
// transaction length 10 and average pattern length 4. Per-item tidsets
// average ~0.5% density, so the auto tidset representation goes sparse and
// frequent-item tail lengths cross the divide-and-conquer kernel's
// crossover — the quest-1m workload, benchmarked by the root package's
// BenchmarkQuest1M.
func QuestT10I4D1MP2K(scale float64, seed int64) QuestConfig {
	n := int(1000000 * scale)
	if n < 1 {
		n = 1
	}
	return QuestConfig{
		NumTrans:      n,
		NumItems:      2000,
		AvgTransLen:   10,
		AvgPatternLen: 4,
		Seed:          seed,
	}
}

// Quest generates an exact transaction dataset following the Quest
// procedure: a pool of potentially frequent itemsets with exponential
// weights and pairwise item overlap, from which transactions are assembled
// with per-pattern corruption.
func Quest(cfg QuestConfig) []itemset.Itemset {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Item popularity for pattern construction: mildly skewed.
	itemWeights := make([]float64, cfg.NumItems)
	for i := range itemWeights {
		itemWeights[i] = rng.ExpFloat64() + 0.1
	}
	itemPick := newWeightedPicker(itemWeights)

	// Pattern pool.
	type pattern struct {
		items      []itemset.Item
		weight     float64
		corruption float64
	}
	patterns := make([]pattern, cfg.NumPatterns)
	var prev []itemset.Item
	for pi := range patterns {
		size := poisson(rng, cfg.AvgPatternLen-1) + 1
		if size > cfg.NumItems {
			size = cfg.NumItems
		}
		chosen := map[itemset.Item]bool{}
		var items []itemset.Item
		// A fraction of items (exponentially distributed, mean 0.5) comes
		// from the previous pattern, giving the pool its overlap structure.
		if len(prev) > 0 {
			frac := math.Min(1, rng.ExpFloat64()*0.5)
			take := int(frac * float64(size))
			perm := rng.Perm(len(prev))
			for _, j := range perm {
				if len(items) >= take {
					break
				}
				if !chosen[prev[j]] {
					chosen[prev[j]] = true
					items = append(items, prev[j])
				}
			}
		}
		for len(items) < size {
			it := itemset.Item(itemPick.pick(rng))
			if !chosen[it] {
				chosen[it] = true
				items = append(items, it)
			}
		}
		corr := rng.NormFloat64()*0.1 + cfg.Corruption
		corr = math.Max(0, math.Min(1, corr))
		patterns[pi] = pattern{items: items, weight: rng.ExpFloat64(), corruption: corr}
		prev = items
	}
	weights := make([]float64, len(patterns))
	for i, p := range patterns {
		weights[i] = p.weight
	}
	patPick := newWeightedPicker(weights)

	out := make([]itemset.Itemset, 0, cfg.NumTrans)
	for len(out) < cfg.NumTrans {
		size := poisson(rng, cfg.AvgTransLen-1) + 1
		if size > cfg.NumItems {
			size = cfg.NumItems
		}
		chosen := map[itemset.Item]bool{}
		for len(chosen) < size {
			p := patterns[patPick.pick(rng)]
			added := 0
			for _, it := range p.items {
				// Each item of the pattern survives corruption
				// independently.
				if rng.Float64() < p.corruption {
					continue
				}
				if len(chosen) >= size && added > 0 {
					// Pattern overflows the transaction: keep it anyway
					// half the time (the Quest rule), otherwise stop.
					if rng.Float64() < 0.5 {
						break
					}
				}
				if !chosen[it] {
					chosen[it] = true
					added++
				}
			}
			if added == 0 {
				// Fully corrupted pick; add a random filler item so the
				// loop always progresses.
				chosen[itemset.Item(itemPick.pick(rng))] = true
			}
		}
		items := make([]itemset.Item, 0, len(chosen))
		for it := range chosen {
			items = append(items, it)
		}
		sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
		out = append(out, itemset.New(items...))
	}
	return out
}

// weightedPicker draws indices with probability proportional to a fixed
// weight vector in O(log n) via binary search over inclusive prefix sums.
// It is draw-equivalent — bitwise, for the same *rand.Rand state — to the
// naive linear scan (total computed by the same left-to-right accumulation,
// then the first index whose prefix sum reaches u), so switching the
// generator to it does not change any generated dataset.
type weightedPicker struct {
	cum []float64 // inclusive prefix sums, left-to-right accumulation order
}

func newWeightedPicker(weights []float64) *weightedPicker {
	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w
		cum[i] = acc
	}
	return &weightedPicker{cum: cum}
}

func (p *weightedPicker) pick(rng *rand.Rand) int {
	u := rng.Float64() * p.cum[len(p.cum)-1]
	i := sort.SearchFloat64s(p.cum, u) // first i with cum[i] >= u, as in the scan
	if i >= len(p.cum) {
		i = len(p.cum) - 1
	}
	return i
}

// weightedPick is the one-shot linear-scan draw, for callers whose weight
// vectors are tiny or vary (the Mushroom-like generator). Hot loops over
// fixed weights should build a weightedPicker instead.
func weightedPick(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	u := rng.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u <= acc {
			return i
		}
	}
	return len(weights) - 1
}

// poisson draws from a Poisson distribution with the given mean (Knuth's
// method; means here are small).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}

// AssignGaussian attaches an existence probability drawn from
// N(mean, variance) to every transaction, clamped into (0, 1] — the
// paper's method for deriving uncertain datasets from certain ones. The
// two regimes it studies are (mean .5, var .5) and (mean .8, var .1).
func AssignGaussian(data []itemset.Itemset, mean, variance float64, seed int64) *uncertain.DB {
	rng := rand.New(rand.NewSource(seed))
	sigma := math.Sqrt(variance)
	trans := make([]uncertain.Transaction, len(data))
	for i, t := range data {
		p := rng.NormFloat64()*sigma + mean
		if p < 0.01 {
			p = 0.01
		}
		if p > 1 {
			p = 1
		}
		trans[i] = uncertain.Transaction{Items: t, Prob: p}
	}
	return uncertain.MustNewDB(trans)
}
