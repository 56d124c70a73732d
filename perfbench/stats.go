package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so spreads computed here and by a Python script over the same values
// agree. With fewer than two values both quartiles are that value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// tailPercentile is the highest whole percentile of an n-sample set that
// still has at least ten samples beyond it. Below 20 samples no percentile
// above the median qualifies, so the median (50) is returned.
func tailPercentile(n int) int {
	p := int(math.Floor(100 * (1 - 10/float64(n))))
	if n < 20 || p < 50 {
		return 50
	}
	return p
}

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// sample with at least p% of the samples at or below it.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(float64(p) / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// unattributedFrac is the share of wall that the attributed intervals do
// not cover: (wall - sum(parts)) / wall. It is negative when the parts
// overlap by more than the remainder (double counting), and 0 for a
// non-positive wall.
func unattributedFrac(wall float64, parts ...float64) float64 {
	if wall <= 0 {
		return 0
	}
	sum := 0.0
	for _, p := range parts {
		sum += p
	}
	return (wall - sum) / wall
}

func sumF(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// mean is the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 { return ratio(sumF(xs), float64(len(xs))) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
