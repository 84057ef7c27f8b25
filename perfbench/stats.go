package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the candidates tail() picks from, highest first.
var tailPercentiles = []float64{99.9, 99.5, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a percentile before it
// is reported: fewer make the figure one or two unlucky requests.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tail returns the highest candidate percentile with at least minBeyond
// samples above it, and its value. ok is false when even the median
// lacks that support.
func tail(sorted []float64) (pct, value float64, ok bool) {
	n := len(sorted)
	for _, p := range tailPercentiles {
		r := rank(p, n)
		if n-r >= minBeyond {
			return p, sorted[r-1], true
		}
	}
	return 0, 0, false
}

// percentile is the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// median of unsorted samples (mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// msOf converts durations to sorted milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// usOf converts durations to microseconds, unsorted.
func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}
