package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs; NaN for no values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean returns the geometric mean of xs, which must be positive;
// NaN for no values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// quartiles returns the three cut points dividing xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with
// its default "exclusive" method, so the spreads this benchmark reports
// agree with the ones an acceptance script computes from the same
// values. It needs at least one value.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	ld := len(s)
	var q [3]float64
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q
}

// spread is the distance between the first and third quartiles of xs
// as a share of their median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	return (q[2] - q[0]) / median(xs)
}

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 80, 75, 50}

// minBeyond is how many samples must lie above a reported tail
// percentile, so the tail is never one or two outliers.
const minBeyond = 10

// tail returns the highest percentile in tailLadder that has at least
// minBeyond samples beyond it, and the value at that percentile by the
// nearest-rank rule (the ceil(p/100*n)-th smallest sample). ok is false
// when even the median has fewer than minBeyond samples above it.
// +Inf samples (failed requests) sort last and count as beyond.
func tail(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailLadder {
		r := nearestRank(p, n)
		if r >= 1 && n-r >= minBeyond {
			return p, s[r-1], true
		}
	}
	return 0, math.NaN(), false
}

// nearestRank is the 1-based rank of the p-th percentile among n
// samples: ceil(p/100*n). The product is rounded to a micro-rank first
// so binary float error (99*100/100 = 99.00000000000001) cannot bump
// the rank.
func nearestRank(p float64, n int) int {
	x := math.Round(p*float64(n)*1e4) / 1e6
	return int(math.Ceil(x))
}

// percentile returns the p-th percentile of xs by the nearest-rank
// rule; NaN for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	r := nearestRank(p, len(s))
	if r < 1 {
		r = 1
	}
	return s[r-1]
}
