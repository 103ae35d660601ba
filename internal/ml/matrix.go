package ml

import (
	"math"
	"sort"
	"sync"

	"repro/internal/table"
)

// Matrix is the frozen columnar encoding of a table: every feature
// column decoded once into floats (string columns as their universal
// active-domain position), null masks, the target vector, and one
// presorted ordering per feature in dense-rank form — rank[row] is the
// row's position among the column's sorted distinct values, so any row
// subset can be enumerated value-ascending by counting instead of
// sorting. TableEncoder.Matrix builds the universal table's once per
// space (and again after an append), so every valuation of the rows
// route fits models on bitmap row views without building a child
// table; TableEncoder.Encode builds one over a materialized child.
// A Matrix is immutable once built.
type Matrix struct {
	names []string
	cols  []matCol
	// Target vector: numeric value, or universal domain position for
	// string targets. ynull marks rows a Dataset would drop (null or
	// NaN target).
	yvals  []float64
	ynull  []bool
	ystr   bool
	ynRank int32 // |target domain| for string targets
	nRows  int

	// viewPool recycles View encoding state across valuations: one
	// matrix serves every state of its workload, and each state's view
	// needs the same buffer shapes, so steady-state view construction
	// reuses released buffers instead of allocating (see View.Release).
	viewPool sync.Pool
}

// matCol is one frozen feature column.
type matCol struct {
	name  string
	isStr bool
	vals  []float64 // numeric value, or universal domain position
	null  []bool    // nil when the column has no nulls
	rank  []int32   // dense rank among sorted distinct non-null values; -1 for nulls, nRank for NaN
	nRank int32
	// distinct holds the sorted distinct non-null values (rank → value).
	distinct []float64
}

// NumRows returns the universal row count.
func (m *Matrix) NumRows() int { return m.nRows }

// Column exposes the frozen decoding of a numeric feature column: the
// per-row cell values as floats and the null mask (nil when the column
// has no nulls). ok is false for unknown names and for string columns,
// whose vals hold universal domain positions rather than cell values.
// The returned slices are the matrix's own — callers must not mutate
// them.
func (m *Matrix) Column(name string) (vals []float64, null []bool, ok bool) {
	for ci := range m.cols {
		if c := &m.cols[ci]; c.name == name {
			if c.isStr {
				return nil, nil, false
			}
			return c.vals, c.null, true
		}
	}
	return nil, nil, false
}

// FeatureNames returns the encoded feature columns in schema order.
func (m *Matrix) FeatureNames() []string { return m.names }

// buildMatrix encodes t column by column with the encoder's frozen
// string domains: string cells become their universal domain position.
// ok is false, and nothing is returned, when a string column or the
// target has no universal domain or a cell lies outside it.
func (e *TableEncoder) buildMatrix(t *table.Table) (m *Matrix, ok bool) {
	n := len(t.Rows)
	m = &Matrix{nRows: n}
	tIdx := t.Schema.Index(e.target)
	for ci, c := range t.Schema {
		if ci == tIdx || e.skip[c.Name] {
			continue
		}
		col := matCol{name: c.Name, isStr: c.Kind == table.KindString}
		col.vals = make([]float64, n)
		col.rank = make([]int32, n)
		if col.isStr {
			codec := e.cols[c.Name]
			if codec == nil {
				return nil, false
			}
			col.nRank = int32(len(codec.index))
			col.distinct = make([]float64, col.nRank)
			for i := range col.distinct {
				col.distinct[i] = float64(i)
			}
			for i, r := range t.Rows {
				v := r[ci]
				if v.IsNull() {
					if col.null == nil {
						col.null = make([]bool, n)
					}
					col.null[i] = true
					col.rank[i] = -1
					continue
				}
				pos, found := codec.index[v.Key()]
				if !found {
					return nil, false
				}
				col.vals[i] = float64(pos)
				col.rank[i] = int32(pos)
			}
		} else {
			var nonNull []float64
			for i, r := range t.Rows {
				v := r[ci]
				if v.IsNull() {
					if col.null == nil {
						col.null = make([]bool, n)
					}
					col.null[i] = true
					col.rank[i] = -1
					continue
				}
				col.vals[i] = v.AsFloat()
				nonNull = append(nonNull, col.vals[i])
			}
			sort.Float64s(nonNull)
			col.distinct = nonNull[:0]
			for _, v := range nonNull {
				if len(col.distinct) == 0 || v != col.distinct[len(col.distinct)-1] {
					col.distinct = append(col.distinct, v)
				}
			}
			col.nRank = int32(len(col.distinct))
			for i := range t.Rows {
				if col.null != nil && col.null[i] {
					continue
				}
				col.rank[i] = int32(sort.SearchFloat64s(col.distinct, col.vals[i]))
			}
		}
		m.cols = append(m.cols, col)
		m.names = append(m.names, c.Name)
	}
	m.yvals = make([]float64, n)
	m.ynull = make([]bool, n)
	if tIdx < 0 {
		for i := range m.ynull {
			m.ynull[i] = true
		}
		return m, true
	}
	m.ystr = t.Schema[tIdx].Kind == table.KindString
	if m.ystr {
		if e.tgt == nil {
			return nil, false
		}
		m.ynRank = int32(len(e.tgt.index))
	}
	for i, r := range t.Rows {
		v := r[tIdx]
		if v.IsNull() {
			m.ynull[i] = true
			continue
		}
		if m.ystr {
			pos, found := e.tgt.index[v.Key()]
			if !found {
				return nil, false
			}
			m.yvals[i] = float64(pos)
		} else {
			m.yvals[i] = v.AsFloat()
			if math.IsNaN(m.yvals[i]) {
				m.ynull[i] = true
			}
		}
	}
	return m, true
}

// View is a state's dataset as a row selection over the frozen Matrix.
// It reproduces FromTable's encoding of the selected child exactly:
// string columns re-rank the universal domain positions present among
// the selected rows, numeric nulls impute the mean over the selected
// rows, masked attributes drop their feature, and null-target rows are
// excluded from the example set (but still contribute to the encoding
// statistics, as FromTable's child-table scans do).
type View struct {
	m    *Matrix
	rows []int32 // example rows (target non-null), in dataset order
	// Encoding state, shared by Split children (fixed by the full
	// child, exactly like FromTable before Dataset.Split):
	feats   []int32     // active matrix columns
	remap   [][]float64 // per active feature: rank → child ordinal (string cols)
	mean    []float64   // per active feature: imputation value (numeric cols)
	hasNull []bool      // per active feature: nulls among the child rows
	yremap  []float64   // string target: rank → child ordinal

	// present is construction scratch (domain-presence marks); root
	// marks views born from Matrix.View, the only ones Release pools.
	present []bool
	root    bool
}

// View builds the dataset view of the child selecting the given
// universal rows (ascending, including rows whose target is null) with
// the named attributes masked. Views are pooled per matrix: hand the
// view back with [View.Release] once fitting and scoring on it (and
// any SplitData children) are finished, and its buffers serve the next
// valuation instead of being reallocated.
func (m *Matrix) View(rows []int, masked []string) *View {
	v, _ := m.viewPool.Get().(*View)
	if v == nil {
		v = &View{}
	}
	v.m = m
	v.root = true
	var maskSet map[string]bool
	if len(masked) > 0 {
		maskSet = make(map[string]bool, len(masked))
		for _, a := range masked {
			maskSet[a] = true
		}
	}
	v.feats = v.feats[:0]
	for ci := range m.cols {
		if maskSet[m.cols[ci].name] {
			continue
		}
		v.feats = append(v.feats, int32(ci))
	}
	nf := len(v.feats)
	v.remap = resizeSlices(v.remap, nf)
	v.mean = resizeFloats(v.mean, nf)
	v.hasNull = resizeBools(v.hasNull, nf)
	for k, ci := range v.feats {
		c := &m.cols[ci]
		if c.isStr {
			present := resizeBools(v.present, int(c.nRank))
			for _, r := range rows {
				if c.null != nil && c.null[r] {
					v.hasNull[k] = true
					continue
				}
				present[c.rank[r]] = true
			}
			remap := resizeFloats(v.remap[k], int(c.nRank))
			next := 0.0
			for i, p := range present {
				if p {
					remap[i] = next
					next++
				}
			}
			v.remap[k] = remap
			v.present = present
		} else if c.null != nil {
			// Mean over the child's non-null cells, summed in row order
			// like FromTable.
			var sum float64
			var cnt int
			for _, r := range rows {
				if c.null[r] {
					v.hasNull[k] = true
					continue
				}
				sum += c.vals[r]
				cnt++
			}
			if cnt > 0 {
				v.mean[k] = sum / float64(cnt)
			}
		}
	}
	if m.ystr {
		present := resizeBools(v.present, int(m.ynRank))
		for _, r := range rows {
			if !m.ynull[r] {
				present[int(m.yvals[r])] = true
			}
		}
		v.present = present
		v.yremap = resizeFloats(v.yremap, len(present))
		next := 0.0
		for i, p := range present {
			if p {
				v.yremap[i] = next
				next++
			}
		}
	} else {
		v.yremap = nil
	}
	if cap(v.rows) < len(rows) {
		v.rows = make([]int32, 0, len(rows))
	} else {
		v.rows = v.rows[:0]
	}
	for _, r := range rows {
		if !m.ynull[r] {
			v.rows = append(v.rows, int32(r))
		}
	}
	return v
}

// Release returns a view's encoding buffers to its matrix's pool. Call
// it only on views obtained directly from Matrix.View, after every use
// of the view — including SplitData children, which borrow the
// parent's encoding state — is finished; the view is invalid
// afterwards. Views derived by SplitData ignore Release.
func (v *View) Release() {
	if !v.root {
		return
	}
	m := v.m
	v.root = false
	v.m = nil
	m.viewPool.Put(v)
}

// resizeFloats returns a zeroed float slice of length n, reusing buf's
// storage when it is large enough.
func resizeFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// resizeBools returns a cleared bool slice of length n, reusing buf.
func resizeBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// resizeSlices returns a length-n outer slice, reusing buf and its
// inner slices (the per-feature remap buffers) when possible.
func resizeSlices(buf [][]float64, n int) [][]float64 {
	if cap(buf) < n {
		next := make([][]float64, n)
		copy(next, buf)
		return next
	}
	return buf[:n]
}

// valueAt returns the child-encoded value of active feature k at
// universal row r — exactly what FromTable would have written into X.
func (v *View) valueAt(k int, r int32) float64 {
	c := &v.m.cols[v.feats[k]]
	if c.null != nil && c.null[r] {
		if c.isStr {
			// FromTable's string columns never compute a mean; null
			// string cells encode as the zero value.
			return 0
		}
		return v.mean[k]
	}
	if c.isStr {
		return v.remap[k][c.rank[r]]
	}
	return c.vals[r]
}

// labelOf returns the child-encoded target of universal row r.
func (v *View) labelOf(r int32) float64 {
	if v.yremap != nil {
		return v.yremap[int32(v.m.yvals[r])]
	}
	return v.m.yvals[r]
}

// NumRows implements Data.
func (v *View) NumRows() int { return len(v.rows) }

// NumFeatures implements Data.
func (v *View) NumFeatures() int { return len(v.feats) }

// FeatureNames returns the active feature names in dataset order.
func (v *View) FeatureNames() []string {
	out := make([]string, len(v.feats))
	for k, ci := range v.feats {
		out[k] = v.m.cols[ci].name
	}
	return out
}

// Label implements Data.
func (v *View) Label(i int) float64 { return v.labelOf(v.rows[i]) }

// Row implements Data.
func (v *View) Row(i int, dst []float64) []float64 {
	dst = dst[:len(v.feats)]
	r := v.rows[i]
	for k := range v.feats {
		dst[k] = v.valueAt(k, r)
	}
	return dst
}

// Col implements Data.
func (v *View) Col(f int, dst []float64) []float64 {
	dst = dst[:len(v.rows)]
	for i, r := range v.rows {
		dst[i] = v.valueAt(f, r)
	}
	return dst
}

// SplitData implements Data with the same deterministic shuffle as
// Dataset.Split, so a view and the equivalent encoded dataset partition
// their rows identically. Children share the parent's encoding state:
// the split selects examples, it does not re-encode.
func (v *View) SplitData(testFrac float64, seed int64) (train, test Data) {
	n := len(v.rows)
	perm, nTest := splitPerm(n, testFrac, seed)
	tr := v.withRows(make([]int32, 0, n-nTest))
	te := v.withRows(make([]int32, 0, nTest))
	for i, p := range perm {
		if i < nTest {
			te.rows = append(te.rows, v.rows[p])
		} else {
			tr.rows = append(tr.rows, v.rows[p])
		}
	}
	return tr, te
}

func (v *View) withRows(rows []int32) *View {
	nv := *v
	nv.rows = rows
	// Children borrow the parent's encoding state and are never pooled
	// themselves: only the view Matrix.View handed out may Release.
	nv.root = false
	return &nv
}

// buildFrame implements Data: gather the encoded columns and derive
// each presorted order from the matrix's dense ranks by counting —
// O(rows + distinct) per feature instead of a sort. The re-ranking of
// string columns and the identity encoding of numeric columns are both
// strictly monotone in the universal rank, so bucketing positions by
// rank (ascending within a bucket) yields the unique (value, position)
// order. Features with imputed nulls fall back to an explicit sort:
// the imputed mean lands between ranks.
func (v *View) buildFrame(ws *treeScratch) *frame {
	fr := v.buildRawFrame(ws)
	for k := range v.feats {
		c := &v.m.cols[v.feats[k]]
		if v.hasNull[k] {
			sortOrder(fr.cols[k], fr.base[k])
		} else {
			countingOrder(c.rank, v.rows, fr.base[k], &ws.cnt, int(c.nRank))
		}
	}
	return fr
}

// buildRawFrame gathers the encoded columns and target without
// deriving the presorted orders (see Data.buildRawFrame).
func (v *View) buildRawFrame(ws *treeScratch) *frame {
	n := len(v.rows)
	nf := len(v.feats)
	fr := ws.getFrame(nf, n)
	fr.ownY(n)
	for i, r := range v.rows {
		fr.y[i] = v.labelOf(r)
	}
	for k := range v.feats {
		col := fr.cols[k]
		for i, r := range v.rows {
			col[i] = v.valueAt(k, r)
		}
	}
	return fr
}

// countingOrder fills out with positions 0..len(rows)-1 sorted by
// (rank[rows[pos]], pos) via one counting pass over the caller's
// grow-on-demand scratch. Because equal rank means equal value and
// positions are placed ascending within a bucket, this is the unique
// (value, position) total order sortOrder computes.
func countingOrder(rank []int32, rows []int32, out []int32, cntBuf *[]int32, nRank int) {
	if cap(*cntBuf) < nRank+1 {
		*cntBuf = make([]int32, nRank+1)
	}
	cnt := (*cntBuf)[:nRank+1]
	for i := range cnt {
		cnt[i] = 0
	}
	for _, r := range rows {
		cnt[rank[r]]++
	}
	sum := int32(0)
	for b := range cnt {
		c := cnt[b]
		cnt[b] = sum
		sum += c
	}
	for i, r := range rows {
		b := rank[r]
		out[cnt[b]] = int32(i)
		cnt[b]++
	}
}
