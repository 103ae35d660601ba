package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio is a/b, 0 when b is 0 (a metric with no samples reads 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// supported is the sample-count rule of the choosing-metrics guide: a
// percentile is reportable only with at least ten samples beyond it, so
// p90 needs 100 samples and p99 needs 1000. Unsupported percentiles are
// still printed (every run must emit every metric) but flagged.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is what the driver computes spreads with.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// driver's steadiness measure.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// worsening is by how much, as a share of base, cur is worse than base
// for a metric whose better direction is given; negative when better.
func worsening(base, cur float64, lowerIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	if lowerIsBetter {
		return (cur - base) / math.Abs(base)
	}
	return (base - cur) / math.Abs(base)
}
