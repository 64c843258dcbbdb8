package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule;
// 0 for an empty slice. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
