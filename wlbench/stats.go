package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least q·n samples at or below it. It returns
// NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// median is the mean of the two middle samples for even counts, so a
// run with few jobs does not report one arbitrary job.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cycleMean returns the mean, over the specs of a cycle, of each spec's
// median time; groups[i] holds the times of spec i's sessions, and a
// spec without one is left out. Every spec counts once however often the
// window let it run, so the result does not move with how far into the
// next cycle a run got, and it averages the jitter of every spec rather
// than taking one or two sessions of a mix whose specs differ in cost up
// to eightfold.
func cycleMean(groups [][]float64) float64 {
	total, n := 0.0, 0
	for _, xs := range groups {
		if len(xs) > 0 {
			total += median(xs)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return total / float64(n)
}

// tailPercentile returns the highest whole percentile whose nearest-rank
// sample has at least tailBeyond samples above it in a set of n, and
// false when n is too small for any percentile at or above the median.
// At n = 40 it is 75: the 30th sample, with 10 beyond it.
func tailPercentile(n int) (int, bool) {
	for p := 99; p >= 50; p-- {
		k := int(math.Ceil(float64(p)*float64(n)/100)) - 1
		if n-1-k >= tailBeyond {
			return p, true
		}
	}
	return 0, false
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// list renders samples comma-separated, in order, with all their digits.
func list(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', -1, 64)
	}
	return strings.Join(parts, ",")
}
