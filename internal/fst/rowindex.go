package fst

import (
	"math/bits"

	"repro/internal/table"
)

// ColumnSource supplies pre-decoded numeric columns of the universal
// table — vals[ri] is row ri's cell as a float, null marks missing
// cells (nil when the column has none), ok is false for columns the
// source does not cover (strings, skipped or unknown names). The ML
// encoder's frozen Matrix is the canonical implementation: a space
// wired to it builds its row index from the statistics already decoded
// for the estimator instead of re-deriving them cell by cell.
type ColumnSource interface {
	Column(name string) (vals []float64, null []bool, ok bool)
}

// rowIndex is the precomputed materialization index of a space: for
// every EntryLiteral, a packed bitmap over the universal table's rows
// marking the tuples that literal's Reduct would remove (non-null cells
// equal to the literal value). Built once per Space on first
// Materialize and immutable afterwards, so any number of concurrent
// materializations — worker pools, parallel engine runs — share it
// without coordination.
type rowIndex struct {
	// litRows[i] is the removed-row bitmap of entry i (nil for
	// EntryAttr entries).
	litRows [][]uint64
	// colOf[i] is the universal column index of entry i's attribute.
	colOf []int
	// words is the packed width of a row bitmap.
	words int
	// rows is the universal row count (for the trailing-word mask).
	rows int
}

// liveMask returns the valid-row mask of word wi.
func (ix *rowIndex) liveMask(wi int) uint64 {
	if valid := ix.rows - wi*wordBits; valid < wordBits {
		return 1<<uint(valid) - 1
	}
	return ^uint64(0)
}

func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }

// buildRowIndex fills the per-literal row bitmaps with one walk of the
// universal rows per attribute that carries literals: each row's cell
// is matched against that attribute's literal values, so the table is
// traversed len(litEntries) times rather than once per literal entry.
// Attributes covered by the space's ColumnSource match against the
// pre-decoded float column (indexAttrColumns); the rest fall back to
// the cell-comparison scan (indexAttrScan).
func (sp *Space) buildRowIndex() {
	u := sp.Universal
	ix := &rowIndex{
		litRows: make([][]uint64, len(sp.Entries)),
		colOf:   make([]int, len(sp.Entries)),
		words:   (len(u.Rows) + wordBits - 1) / wordBits,
		rows:    len(u.Rows),
	}
	colIdx := make(map[string]int, len(u.Schema))
	for i, c := range u.Schema {
		colIdx[c.Name] = i
	}
	for i, e := range sp.Entries {
		ix.colOf[i] = colIdx[e.Attr]
		if e.Kind == EntryLiteral {
			ix.litRows[i] = make([]uint64, ix.words)
		}
	}
	for _, entries := range sp.litEntries {
		if len(entries) == 0 {
			continue
		}
		if sp.indexAttrColumns(ix, entries) {
			continue
		}
		sp.indexAttrScan(ix, entries)
	}
	sp.idx = ix
}

// indexAttrColumns fills one attribute's literal bitmaps from the
// column source's frozen floats, returning false
// (nothing written) when the attribute or its literals are not
// float-comparable. Float equality against the decoded column is
// exactly Value.Equal for numeric cells — Equal compares int/float
// pairs via AsFloat, and Value.Key collapses numerically equal ints
// and floats the same way — so the fast path and the scan agree bit
// for bit.
func (sp *Space) indexAttrColumns(ix *rowIndex, entries []int) bool {
	if sp.colSrc == nil {
		return false
	}
	vals, null, ok := sp.colSrc.Column(sp.Entries[entries[0]].Attr)
	if !ok || len(vals) != len(sp.Universal.Rows) {
		return false
	}
	lits := make([]float64, len(entries))
	for k, i := range entries {
		v := sp.Entries[i].Literal.Value
		if kind := v.Kind(); kind != table.KindFloat && kind != table.KindInt {
			return false
		}
		lits[k] = v.AsFloat()
	}
	for ri, f := range vals {
		if null != nil && null[ri] {
			continue
		}
		for k, i := range entries {
			if f == lits[k] {
				ix.litRows[i][ri/wordBits] |= 1 << (uint(ri) % wordBits)
			}
		}
	}
	return true
}

// indexAttrScan fills one attribute's literal bitmaps by comparing
// universal cells — the reference path, and the only one for string
// attributes and spaces without a column source.
func (sp *Space) indexAttrScan(ix *rowIndex, entries []int) {
	ci := ix.colOf[entries[0]]
	for ri, r := range sp.Universal.Rows {
		cell := r[ci]
		if cell.IsNull() {
			continue
		}
		for _, i := range entries {
			if cell.Equal(sp.Entries[i].Literal.Value) {
				ix.litRows[i][ri/wordBits] |= 1 << (uint(ri) % wordBits)
			}
		}
	}
}
