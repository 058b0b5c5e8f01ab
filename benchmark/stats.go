package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0 < p < 1) of xs by the exclusive
// method of Python's statistics.quantiles — position p·(n+1), clamped to
// the interior intervals, linear interpolation — so quartiles computed
// here and by the harness that gates the benchmark agree digit for
// digit. xs is not modified; an empty xs yields NaN and a single sample
// is every quantile of itself.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	pos := p * float64(n+1)
	j := min(max(int(math.Floor(pos)), 1), n-1)
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) (q1, med, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
}
