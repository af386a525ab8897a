// Package poibin implements the Poisson binomial distribution — the
// distribution of sup(X) when each transaction containing X exists
// independently with its own probability. It provides the exact dynamic-
// programming tail used for frequent probabilities (Definition 3.4), the
// Chernoff/Hoeffding tail upper bounds behind Lemma 4.1, a normal
// approximation (the accelerated model of related work [23]), and
// conditional sampling of the underlying Bernoulli vector given
// "sum ≥ k", which the ApproxFCP Monte-Carlo estimator requires.
//
// Every product that feeds an addition is wrapped in an explicit float64(…)
// conversion. The Go spec lets some architectures fuse x*y + z into one
// multiply-add, which rounds differently; the conversion forbids that, so
// every platform computes the same bits (sweep.go explains why that matters).
package poibin

import (
	"math"
)

// Mean returns E[S] = Σ p_i, the expected support.
func Mean(probs []float64) float64 {
	s := 0.0
	for _, p := range probs {
		s += p
	}
	return s
}

// Tail returns Pr[S ≥ k] exactly, where S = Σ Bernoulli(p_i). Below the
// ConvCrossoverN crossover this is dynamic programming over counts truncated
// at k (time O(n·min(k, n+1)), space O(min(k, n+1))); at or above it, the
// divide-and-conquer convolution tree of kernel.go. The dispatch is a fixed
// function of len(probs), so every caller resolves a given vector with the
// same kernel (see the kernel.go package comment for why that matters).
//
// This is the paper's "dynamic programming approach [22]" for computing the
// frequent probability Pr{sup(X) ≥ min_sup}. Callers on a hot path should
// hold a Scratch and use Scratch.Tail, which reuses the DP buffer.
func Tail(probs []float64, k int) float64 {
	var s Scratch
	return s.TailKernel(probs, k, KernelAuto)
}

// TailAll returns Pr[S ≥ k] for every k in 0..n in one O(n²) pass.
func TailAll(probs []float64) []float64 {
	pmf := PMF(probs)
	n := len(probs)
	tails := make([]float64, n+2)
	for k := n; k >= 0; k-- {
		tails[k] = tails[k+1] + pmf[k]
		if tails[k] > 1 {
			tails[k] = 1
		}
	}
	return tails[:n+1]
}

// PMF returns the full probability mass function Pr[S = c] for c in 0..n by
// the standard O(n²) convolution DP.
func PMF(probs []float64) []float64 {
	n := len(probs)
	pmf := make([]float64, n+1)
	pmf[0] = 1
	for i, p := range probs {
		q := 1 - p
		for c := i + 1; c >= 1; c-- {
			pmf[c] = float64(pmf[c]*q) + float64(pmf[c-1]*p)
		}
		pmf[0] *= q
	}
	return pmf
}

// HoeffdingUpper returns the Hoeffding upper bound on Pr[S ≥ k]:
// exp(−2 t² / n) with t = k − μ, valid whenever k > μ; otherwise 1.
func HoeffdingUpper(probs []float64, k int) float64 {
	return hoeffdingUpper(Mean(probs), len(probs), k)
}

func hoeffdingUpper(mu float64, n, k int) float64 {
	if n == 0 {
		if k <= 0 {
			return 1
		}
		return 0
	}
	t := float64(k) - mu
	if t <= 0 {
		return 1
	}
	return math.Exp(-2 * t * t / float64(n))
}

// ChernoffUpper returns the multiplicative Chernoff upper bound on
// Pr[S ≥ k] = Pr[S ≥ (1+δ)μ]: exp(−δ²μ / (2+δ)), valid for k > μ;
// otherwise 1. This is the Chernoff-Hoeffding-style bound Lemma 4.1 prunes
// with.
func ChernoffUpper(probs []float64, k int) float64 {
	return chernoffUpper(Mean(probs), k)
}

func chernoffUpper(mu float64, k int) float64 {
	if mu <= 0 {
		if k <= 0 {
			return 1
		}
		return 0
	}
	d := (float64(k) - mu) / mu
	if d <= 0 {
		return 1
	}
	return math.Exp(-d * d * mu / (2 + d))
}

// TailUpperBound returns the tightest of the implemented analytic upper
// bounds on Pr[S ≥ k]. It is always ≥ Tail(probs, k), so pruning an itemset
// whenever TailUpperBound ≤ pfct is sound.
func TailUpperBound(probs []float64, k int) float64 {
	return TailUpperBoundMean(Mean(probs), len(probs), k)
}

// TailUpperBoundMean is TailUpperBound from the vector's mean mu and
// length n: callers that already summed Mean(probs) while gathering the
// vector pass it here, bit-identically, instead of summing it again.
func TailUpperBoundMean(mu float64, n, k int) float64 {
	if k > n {
		return 0
	}
	return min(hoeffdingUpper(mu, n, k), chernoffUpper(mu, k))
}

// TailLowerBound returns an analytic lower bound on Pr[S ≥ k]: by Hoeffding
// on the complement, Pr[S ≤ k−1] ≤ exp(−2(μ−k+1)²/n) whenever μ > k−1, so
// Pr[S ≥ k] ≥ 1 − exp(−2(μ−k+1)²/n); otherwise the trivial bound 0. It is
// always ≤ Tail(probs, k), so accepting an itemset as probabilistically
// frequent whenever TailLowerBound > pft is sound — the acceptance
// counterpart of Lemma 4.1's rejection, in the spirit of the
// approximation-accelerated exact mining of related work [23].
func TailLowerBound(probs []float64, k int) float64 {
	n := len(probs)
	if k <= 0 {
		return 1
	}
	if k > n || n == 0 {
		return 0
	}
	t := Mean(probs) - float64(k-1)
	if t <= 0 {
		return 0
	}
	return 1 - math.Exp(-2*t*t/float64(n))
}
