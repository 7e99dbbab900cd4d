package main

import (
	"math"
	"slices"
)

// minBeyond is the number of samples a reported percentile must leave
// beyond it; a tail percentile resting on fewer is mostly noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. xs need not be sorted; it is not modified. Empty input gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error in p/100*n from bumping an exact
	// rank (99.9% of 10000 is 9990, not 9991).
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// beyond is the number of samples strictly above the p-th percentile's
// rank.
func beyond(n int, p float64) int { return n - rank(n, p) }

// highestSupported returns the highest of the candidate percentiles
// that leaves at least minBeyond samples beyond it at n samples, or 50
// when none does.
func highestSupported(n int, candidates []float64) float64 {
	best := 50.0
	for _, p := range candidates {
		if p > best && beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// median is the 50th percentile, averaging the middle pair for even
// counts so that small sets of repeated measurements centre properly.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
