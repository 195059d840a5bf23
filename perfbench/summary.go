package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// Summary describes one sample population: the median and quartiles by
// linear interpolation (stats.Quantile) and the population size, so every
// reported number carries the count it rests on.
type Summary struct {
	N   int
	P25 float64
	P50 float64
	P75 float64
	Max float64
}

// Summarize computes the Summary of xs. An empty population yields N = 0
// and NaN statistics, which the report prints as missing rather than as a
// plausible-looking zero.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{P25: nan, P50: nan, P75: nan, Max: nan}
	}
	return Summary{
		N:   len(xs),
		P25: stats.Quantile(xs, 0.25),
		P50: stats.Quantile(xs, 0.50),
		P75: stats.Quantile(xs, 0.75),
		Max: stats.Quantile(xs, 1),
	}
}

// NearestRank returns the nearest-rank q-percentile of xs (the smallest
// sample at least q of the population lies at or below) and the number of
// samples strictly above it, which says how many observations the tail
// figure rests on. An empty population yields NaN.
func NearestRank(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	idx = min(max(idx, 0), len(s)-1)
	v := s[idx]
	beyond = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return v, beyond
}

// MidMean returns the mean of the middle half of xs by rank, between its
// quartiles (the interquartile mean). A call time that falls into two
// modes, as one with or without a GC cycle in it does, makes the median
// jump between them from run to run; the mid-mean averages over both, and
// unlike the plain mean it ignores the odd preempted call. An empty
// population yields NaN.
func MidMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}
