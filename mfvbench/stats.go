package main

import (
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank is the 1-based rank of the nearest-rank q-quantile of n
// samples: the smallest rank with at least q·n samples at or below it.
func nearestRank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples that lie strictly above the nearest-rank
// q-quantile of n samples.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, q)
}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs and whether at least
// minBeyond samples lie beyond it, which is the condition for reporting it.
func quantile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	return s[nearestRank(len(s), q)-1], beyond(len(s), q) >= minBeyond
}
