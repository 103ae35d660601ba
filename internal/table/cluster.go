package table

import (
	"repro/internal/stats"
)

// DeriveLiterals produces the equality literals for one attribute,
// following the paper's D_U construction: k-means clustering over the
// active domain (max k = 30 by default), one literal per cluster.
// Numeric attributes are clustered; categorical attributes contribute one
// literal per distinct value, capped at maxK most frequent values.
func DeriveLiterals(t *Table, attr string, maxK int) []Literal {
	if maxK <= 0 {
		maxK = 30
	}
	idx := t.Schema.Index(attr)
	if idx < 0 {
		return nil
	}
	if t.Schema[idx].Kind == KindString {
		return categoricalLiterals(t, attr, idx, maxK)
	}
	var xs []float64
	for _, r := range t.Rows {
		if !r[idx].IsNull() {
			xs = append(xs, r[idx].AsFloat())
		}
	}
	return literalsFromFloats(attr, xs, maxK)
}

// DeriveLiteralsFromColumn is the numeric path of DeriveLiterals fed
// from a pre-decoded column instead of a row scan: vals[ri] is row
// ri's cell as a float, null marks missing cells (nil when the column
// has none). Because a decoded column lists exactly the AsFloat values
// of the non-null cells in row order, the k-means input — and hence
// the derived literals — is identical to DeriveLiterals on the same
// attribute; a property test asserts this.
func DeriveLiteralsFromColumn(attr string, vals []float64, null []bool, maxK int) []Literal {
	if maxK <= 0 {
		maxK = 30
	}
	xs := make([]float64, 0, len(vals))
	for i, v := range vals {
		if null != nil && null[i] {
			continue
		}
		xs = append(xs, v)
	}
	return literalsFromFloats(attr, xs, maxK)
}

func literalsFromFloats(attr string, xs []float64, maxK int) []Literal {
	if len(xs) == 0 {
		return nil
	}
	centroids, _ := stats.KMeans1D(xs, maxK, 50)
	out := make([]Literal, len(centroids))
	for i, c := range centroids {
		out[i] = Literal{Attr: attr, Value: Float(c)}
	}
	return out
}

func categoricalLiterals(t *Table, attr string, idx, maxK int) []Literal {
	counts := make(map[string]int)
	vals := make(map[string]Value)
	for _, r := range t.Rows {
		v := r[idx]
		if v.IsNull() {
			continue
		}
		counts[v.Key()]++
		vals[v.Key()] = v
	}
	adom := t.ActiveDomain(attr)
	if len(adom) <= maxK {
		out := make([]Literal, len(adom))
		for i, v := range adom {
			out[i] = Literal{Attr: attr, Value: v}
		}
		return out
	}
	// Keep the maxK most frequent values, in deterministic adom order.
	type kv struct {
		v Value
		n int
	}
	ordered := make([]kv, 0, len(adom))
	for _, v := range adom {
		ordered = append(ordered, kv{v, counts[v.Key()]})
	}
	// Stable selection of top-maxK by count.
	for i := 0; i < maxK && i < len(ordered); i++ {
		best := i
		for j := i + 1; j < len(ordered); j++ {
			if ordered[j].n > ordered[best].n {
				best = j
			}
		}
		ordered[i], ordered[best] = ordered[best], ordered[i]
	}
	out := make([]Literal, 0, maxK)
	for i := 0; i < maxK; i++ {
		out = append(out, Literal{Attr: attr, Value: ordered[i].v})
	}
	return out
}

// Compress replaces each numeric cell of attr with its cluster centroid,
// shrinking the active domain to at most maxK values ("replacing rows into
// tuple clusters" in Section 6). Categorical and null cells pass through.
func Compress(t *Table, attr string, maxK int) *Table {
	idx := t.Schema.Index(attr)
	out := t.Clone()
	if idx < 0 || t.Schema[idx].Kind == KindString {
		return out
	}
	var xs []float64
	var rowIdx []int
	for i, r := range t.Rows {
		if !r[idx].IsNull() {
			xs = append(xs, r[idx].AsFloat())
			rowIdx = append(rowIdx, i)
		}
	}
	if len(xs) == 0 {
		return out
	}
	centroids, assign := stats.KMeans1D(xs, maxK, 50)
	for j, ri := range rowIdx {
		out.Rows[ri][idx] = Float(centroids[assign[j]])
	}
	return out
}
