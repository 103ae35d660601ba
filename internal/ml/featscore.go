package ml

import (
	"math"
	"sort"
	"sync"
)

// FisherScoreData returns the Fisher score of each feature of a data
// view against the given (possibly discretized) class labels: the ratio
// of between-class variance to within-class variance [Li et al.,
// Feature Selection: A Data Perspective]. Higher is more
// discriminative. p_Fsc in Table 3. Sums run in row order, so a
// dataset and a matrix view of the same numbers agree bit for bit.
func FisherScoreData(d Data, y []float64) []float64 {
	n := d.NumRows()
	if n == 0 {
		return nil
	}
	out := make([]float64, d.NumFeatures())
	classes, byClass := classIndex(y)
	col := make([]float64, n)
	for f := range out {
		out[f] = fisherScoreCol(d.Col(f, col), classes, byClass)
	}
	return out
}

// classIndex groups row indexes by integer class, classes sorted so
// float summation order stays deterministic (the fixed-model guarantee).
func classIndex(y []float64) ([]int, map[int][]int) {
	byClass := map[int][]int{}
	for i, yv := range y {
		c := int(yv)
		byClass[c] = append(byClass[c], i)
	}
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	return classes, byClass
}

// fisherScoreCol is the per-feature Fisher ratio over one column.
func fisherScoreCol(col []float64, classes []int, byClass map[int][]int) float64 {
	var overall float64
	for _, v := range col {
		overall += v
	}
	overall /= float64(len(col))
	var num, den float64
	for _, c := range classes {
		idx := byClass[c]
		nc := float64(len(idx))
		var mc float64
		for _, i := range idx {
			mc += col[i]
		}
		mc /= nc
		var vc float64
		for _, i := range idx {
			d := col[i] - mc
			vc += d * d
		}
		vc /= nc
		num += nc * (mc - overall) * (mc - overall)
		den += nc * vc
	}
	if den > 0 {
		return num / den
	}
	return 0
}

// MutualInformationData estimates I(X_f; Y) per feature of a data view
// by equal-frequency discretization into bins (default 10) of both the
// feature and, when continuous, the given labels. p_MI in Table 3.
func MutualInformationData(d Data, y []float64, bins int) []float64 {
	n := d.NumRows()
	if n == 0 {
		return nil
	}
	if bins <= 0 {
		bins = 10
	}
	s := miPool.Get().(*miScratch)
	defer miPool.Put(s)
	s.yd = s.discretize(y, bins, s.yd)
	out := make([]float64, d.NumFeatures())
	s.col = resizeFloats(s.col, n)
	for f := range out {
		s.xd = s.discretize(d.Col(f, s.col), bins, s.xd)
		out[f] = s.discreteMI(s.xd, s.yd)
	}
	return out
}

// miScratch holds the buffers a mutual-information call reuses across
// its features: the gathered column, the sorted copy discretize reads
// levels from, its levels or bin edges, both level-id vectors, and the
// dense count tables of discreteMI. miPool recycles it across calls.
type miScratch struct {
	col, sorted, cuts []float64
	xd, yd            []int
	joint, pa, pb     []float64
}

var miPool = sync.Pool{New: func() any { return new(miScratch) }}

// discretize writes the equal-frequency bin id of each value to out
// (resized to len(xs)) and returns it; values with at most bins
// distinct levels keep their level ids, the rank among the distinct
// values. Levels are read off a sorted copy, where NaN sorts first
// and, never equal to itself, is a level of its own each time; a NaN
// value gets id 0.
func (s *miScratch) discretize(xs []float64, bins int, out []int) []int {
	sorted := append(s.sorted[:0], xs...)
	s.sorted = sorted
	sort.Float64s(sorted)
	out = resizeInts(out, len(xs))
	levels, few := s.cuts[:0], true
	for i, x := range sorted {
		if i > 0 && x == sorted[i-1] {
			continue
		}
		if len(levels) == bins {
			few = false
			break
		}
		levels = append(levels, x)
	}
	s.cuts = levels
	if few {
		for i, x := range xs {
			if x != x {
				out[i] = 0
			} else {
				out[i] = sort.SearchFloat64s(levels, x)
			}
		}
		return out
	}
	edges := s.cuts[:0]
	for b := 1; b < bins; b++ {
		e := sorted[b*len(sorted)/bins]
		if len(edges) == 0 || e != edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	s.cuts = edges
	for i, x := range xs {
		out[i] = sort.SearchFloat64s(edges, x)
	}
	return out
}

// discreteMI is the mutual information of two level-id vectors (ids
// non-negative, as discretize makes them). Counts go into dense tables
// and the sum runs over the joint table in row-major order — ascending
// (a, b), the order that keeps the returned float deterministic.
func (s *miScratch) discreteMI(a, b []int) float64 {
	n := float64(len(a))
	if n == 0 {
		return 0
	}
	na, nb := maxID(a)+1, maxID(b)+1
	s.joint = resizeFloats(s.joint, na*nb)
	s.pa = resizeFloats(s.pa, na)
	s.pb = resizeFloats(s.pb, nb)
	joint, pa, pb := s.joint, s.pa, s.pb
	for i, x := range a {
		joint[x*nb+b[i]]++
		pa[x]++
		pb[b[i]]++
	}
	var mi float64
	for x := 0; x < na; x++ {
		for y, c := range joint[x*nb : (x+1)*nb] {
			if c == 0 {
				continue
			}
			pxy := c / n
			px := pa[x] / n
			py := pb[y] / n
			mi += pxy * math.Log(pxy/(px*py))
		}
	}
	if mi < 0 {
		mi = 0
	}
	return mi
}

func maxID(ids []int) int {
	m := 0
	for _, v := range ids {
		if v > m {
			m = v
		}
	}
	return m
}

func resizeInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
