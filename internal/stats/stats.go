// Package stats provides the numeric substrate shared across MODis:
// k-means clustering (used to derive equality literals from active
// domains), rank correlation (used by BiMODis' correlation-based
// pruning), and the distance functions of the diversification score.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance, or NaN for empty input.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the minimum and maximum of xs; NaNs for empty input.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Normalize maps xs into (0,1] by min-max scaling with a floor eps>0,
// matching the paper's convention that measures live in (0,1] with a
// strictly positive lower bound. A constant series maps to all-1.
func Normalize(xs []float64, eps float64) []float64 {
	out := make([]float64, len(xs))
	lo, hi := MinMax(xs)
	span := hi - lo
	for i, x := range xs {
		if span == 0 {
			out[i] = 1
			continue
		}
		v := (x - lo) / span
		if v < eps {
			v = eps
		}
		out[i] = v
	}
	return out
}

// Ranks returns average ranks (1-based) of xs, with ties receiving the
// mean of their covered rank positions, as required by Spearman's rho.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Pearson returns the Pearson correlation coefficient of x and y, or 0
// when either series is constant or the lengths mismatch.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns Spearman's rank correlation coefficient, the
// correlation measure used by BiMODis' correlation graph G_C.
func Spearman(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return 0
	}
	return Pearson(Ranks(x), Ranks(y))
}

// Euclidean returns the Euclidean distance of two vectors.
func Euclidean(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
