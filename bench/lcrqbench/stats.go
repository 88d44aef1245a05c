package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a reported percentile. A
// tail percentile resting on fewer is one or two unlucky operations, not a
// property of the system, so it is printed as not reportable.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of sorted, a sample of
// whole nanoseconds, and whether at least minBeyond samples lie above its
// rank. The nearest-rank sample v stands for the 1 ns bin [v-0.5, v+0.5),
// and the quantile is placed in that bin in proportion to the rank's
// position among the samples equal to v. Whole-nanosecond percentiles
// would otherwise read the same on many runs and hide small shifts.
func percentile[T ~uint32 | ~int64](sorted []T, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	idx := max(0, min(int(math.Ceil(p*float64(n)))-1, n-1))
	v := sorted[idx]
	lo, _ := slices.BinarySearch(sorted, v)
	hi, _ := slices.BinarySearch(sorted, v+1)
	frac := (p*float64(n) - float64(lo)) / float64(hi-lo)
	return float64(v) - 0.5 + max(0, min(frac, 1)), n-1-idx >= minBeyond
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so that numbers printed here match the ones anyone
// computes from the same values with Python. One value is its own
// quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median returns the median of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowRates turns cumulative per-worker counts taken at each window
// boundary into one rate per window: the sum over workers of the count each
// made inside the window, divided by the window length in seconds. Workers
// that stopped early contribute to the windows they saw.
func windowRates(marks [][]uint64, windowSec float64) []float64 {
	n := 0
	for _, m := range marks {
		n = max(n, len(m)-1)
	}
	rates := make([]float64, n)
	for _, m := range marks {
		for k := 0; k+1 < len(m); k++ {
			rates[k] += float64(m[k+1] - m[k])
		}
	}
	for k := range rates {
		rates[k] /= windowSec
	}
	return rates
}

// everyOther returns xs[start], xs[start+2], ...
func everyOther(xs []float64, start int) []float64 {
	var out []float64
	for i := start; i < len(xs); i += 2 {
		out = append(out, xs[i])
	}
	return out
}
