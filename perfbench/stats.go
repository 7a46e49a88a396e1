package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// when len(xs) is even), or NaN for an empty sample. xs is not
// modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between the closest ranks, the estimator that puts the
// minimum at p=0 and the maximum at p=100. It returns NaN for an empty
// sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
