package main

import (
	"math"
	"sort"
)

// slices is how many equal consecutive parts a measured window is cut
// into. Every timing metric is the median over the parts, so a burst of
// interference that lands in one or two of them does not move the
// result.
const slices = 5

// quantile returns the exact q-quantile (nearest rank, no
// interpolation) of sorted, or 0 when it is empty.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// median returns the middle value of vs (the mean of the middle two for
// an even count) without reordering vs.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sliceBounds cuts [0, n) into parts consecutive ranges whose lengths
// differ by at most one; part k is [b[k], b[k+1]).
func sliceBounds(n, parts int) []int {
	b := make([]int, parts+1)
	for k := range b {
		b[k] = k * n / parts
	}
	return b
}

// sliceQuantile is the median over the window's slices of each slice's
// exact q-quantile. Negative samples mark failed requests, which carry
// no latency, and are skipped.
func sliceQuantile(samples []float64, q float64) float64 {
	b := sliceBounds(len(samples), slices)
	per := make([]float64, 0, slices)
	for k := 0; k < slices; k++ {
		part := make([]float64, 0, b[k+1]-b[k])
		for _, v := range samples[b[k]:b[k+1]] {
			if v >= 0 {
				part = append(part, v)
			}
		}
		sort.Float64s(part)
		per = append(per, quantile(part, q))
	}
	return median(per)
}

// sortedQuantile sorts a copy of vs and returns its exact q-quantile.
func sortedQuantile(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, q)
}

// mean returns the arithmetic mean of vs, or 0 when it is empty.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quartileSpread is the distance between the first and the third
// quartile of vs as a share of their median, with the quartiles Python's
// statistics.quantiles(vs, n=4) gives (the exclusive method), so that
// the number agrees with the one the benchmark's driver computes.
func quartileSpread(vs []float64) float64 {
	m := len(vs)
	if m < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(cut(3)-cut(1), cut(2))
}
