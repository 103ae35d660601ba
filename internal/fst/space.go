// Package fst formalizes the skyline data generator of the MODis paper
// as a finite state transducer T = (s_M, S, O, S_F, δ) (Section 3): a
// state is a bitmap over the universal table that encodes which
// attributes and which active-domain clusters are present; Reduct flips
// entries 1→0 and Augment flips 0→1; materializing a bitmap yields the
// state's dataset D_s via SPJ queries.
package fst

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/table"
)

// EntryKind distinguishes the two bitmap entry classes.
type EntryKind uint8

const (
	// EntryAttr toggles participation of a whole attribute (adom_s(A) = ∅
	// versus wildcard).
	EntryAttr EntryKind = iota
	// EntryLiteral toggles the tuples of one active-domain cluster,
	// identified by an equality literal A = a.
	EntryLiteral
)

// Entry is one position of the state bitmap L.
type Entry struct {
	Kind    EntryKind
	Attr    string
	Literal table.Literal // valid when Kind == EntryLiteral
}

// String renders the entry for debugging.
func (e Entry) String() string {
	if e.Kind == EntryAttr {
		return "attr:" + e.Attr
	}
	return "lit:" + e.Literal.String()
}

// Space is the dataset exploration space induced by a universal table: it
// fixes the entry ordering so every Bitmap identifies one dataset.
type Space struct {
	Universal *table.Table
	Target    string
	Entries   []Entry
	// attrEntry maps attribute name to its EntryAttr index.
	attrEntry map[string]int
	// litEntries maps attribute name to its EntryLiteral indexes.
	litEntries map[string][]int
	// udfs are post-materialization task-specific operators (see udf.go).
	udfs []UDF

	// idx is the lazily-built row index backing incremental
	// materialization (see rowindex.go); immutable once built, so
	// concurrent Materialize calls share it freely. Append drops it.
	idxOnce sync.Once
	idx     *rowIndex
	// colSrc, when set, supplies pre-decoded numeric columns the row
	// index is built from instead of re-scanning universal cells.
	colSrc ColumnSource

	// rowsPool recycles per-valuation row-derivation scratch (see
	// rowsScratch): one workload's valuations all need the same slice
	// capacities, so the pool makes the RowsFor/Materialize row walk
	// allocation-free at steady state.
	rowsPool sync.Pool

	// version counts committed Append batches (0 = the table the space
	// was built from); verRows[v] is the universal row count at version
	// v, filled lazily on the first Append. Both belong to the space's
	// streaming lifecycle (see append.go) and are only written by
	// Append, which must not race runs.
	version uint64
	verRows []int
}

// SpaceConfig controls space construction.
type SpaceConfig struct {
	// MaxLiteralsPerAttr caps the cluster literals per attribute (the
	// paper uses k-means with max k = 30; the experiments use far fewer).
	MaxLiteralsPerAttr int
	// SkipLiteralAttrs lists attributes that contribute no literal
	// entries (e.g. identifier columns).
	SkipLiteralAttrs []string
	// ProtectedAttrs lists attributes that contribute no attribute entry
	// either: they can never be masked (e.g. the endpoints of a graph's
	// edge table, without which the model cannot run).
	ProtectedAttrs []string
	// Columns, when set, supplies pre-decoded numeric columns (typically
	// the ML encoder's frozen matrix): literal derivation clusters the
	// already-decoded floats instead of re-scanning universal cells, and
	// the same source feeds row-index construction.
	// Attributes the source does not cover — strings, skipped names —
	// fall back to the row scan. Literals are identical either way; a
	// property test asserts it.
	Columns ColumnSource
}

// NewSpace derives the bitmap layout from a (pre-compressed) universal
// table: one EntryAttr per non-target attribute and one EntryLiteral per
// derived cluster literal. The target attribute is never droppable.
func NewSpace(universal *table.Table, target string, cfg SpaceConfig) *Space {
	if cfg.MaxLiteralsPerAttr <= 0 {
		cfg.MaxLiteralsPerAttr = 30
	}
	skip := map[string]bool{}
	for _, a := range cfg.SkipLiteralAttrs {
		skip[a] = true
	}
	protected := map[string]bool{}
	for _, a := range cfg.ProtectedAttrs {
		protected[a] = true
	}
	sp := &Space{
		Universal:  universal,
		Target:     target,
		attrEntry:  map[string]int{},
		litEntries: map[string][]int{},
		colSrc:     cfg.Columns,
	}
	for _, c := range universal.Schema {
		if c.Name == target || protected[c.Name] {
			continue
		}
		sp.attrEntry[c.Name] = len(sp.Entries)
		sp.Entries = append(sp.Entries, Entry{Kind: EntryAttr, Attr: c.Name})
	}
	for _, c := range universal.Schema {
		if c.Name == target || skip[c.Name] {
			continue
		}
		for _, lit := range deriveLiterals(universal, c.Name, cfg) {
			sp.litEntries[c.Name] = append(sp.litEntries[c.Name], len(sp.Entries))
			sp.Entries = append(sp.Entries, Entry{Kind: EntryLiteral, Attr: c.Name, Literal: lit})
		}
	}
	return sp
}

// deriveLiterals clusters one attribute's active domain, from the
// config's pre-decoded columns when they cover the attribute and from
// a universal row scan otherwise.
func deriveLiterals(u *table.Table, attr string, cfg SpaceConfig) []table.Literal {
	if cfg.Columns != nil {
		if vals, null, ok := cfg.Columns.Column(attr); ok && len(vals) == len(u.Rows) {
			return table.DeriveLiteralsFromColumn(attr, vals, null, cfg.MaxLiteralsPerAttr)
		}
	}
	return table.DeriveLiterals(u, attr, cfg.MaxLiteralsPerAttr)
}

// Size returns the number of bitmap entries.
func (sp *Space) Size() int { return len(sp.Entries) }

// FullBitmap returns the start state s_U of the forward search: every
// entry present, i.e. the universal dataset itself.
func (sp *Space) FullBitmap() Bitmap {
	b := NewBitmap(len(sp.Entries))
	for i := range sp.Entries {
		b.Set(i)
	}
	return b
}

// AttrEntry returns the EntryAttr index for the attribute, or -1.
func (sp *Space) AttrEntry(attr string) int {
	if i, ok := sp.attrEntry[attr]; ok {
		return i
	}
	return -1
}

// LiteralEntries returns the EntryLiteral indexes of the attribute.
func (sp *Space) LiteralEntries(attr string) []int { return sp.litEntries[attr] }

// Materialize produces the dataset D_s of a state by applying the
// sequence of Reduct operators implied by the cleared bitmap entries to
// the universal table: cleared literal entries remove their cluster's
// tuples (⊖), cleared attribute entries mask their column (adom_s = ∅).
//
// Materialization is incremental: the space lazily builds one row-index
// bitmap per literal entry over the universal table (rowindex.go), so a
// state's surviving rows are the union of its cleared literals' bitmaps,
// complemented — word-wise set arithmetic instead of the former nested
// row-by-literal scan. Safe for concurrent calls; the scan-based
// reference implementation survives as materializeScan for tests.
func (sp *Space) Materialize(bits Bitmap) *table.Table {
	if bits.Len() != len(sp.Entries) {
		panic(fmt.Sprintf("fst: bitmap width %d != space size %d", bits.Len(), len(sp.Entries)))
	}
	// Union the removed-row bitmaps of cleared literals; collect masked
	// attribute columns. Shared with RowsFor, the zero-materialization
	// twin of this method. The scratch goes back to the pool on return:
	// everything derived from it is copied into the output table.
	sc := sp.getRowsScratch()
	defer sp.rowsPool.Put(sc)
	removed, maskedEntries := sp.removedRows(bits, sc)
	idx := sp.idx
	var masked []int
	for _, i := range maskedEntries {
		masked = append(masked, idx.colOf[i])
	}

	u := sp.Universal
	out := table.New("D_s", u.Schema)
	// Walk the surviving rows (complement of removed) word-wise.
	for wi, w := range removed {
		live := ^w & idx.liveMask(wi)
		for live != 0 {
			r := u.Rows[wi*wordBits+trailingZeros(live)]
			live &= live - 1
			nr := r.Clone()
			for _, ci := range masked {
				nr[ci] = table.Null
			}
			out.Rows = append(out.Rows, nr)
		}
	}
	// Drop fully masked attributes from the schema view (output size
	// excludes attributes with all cells masked, per Section 6).
	if len(masked) > 0 {
		keep := make([]string, 0, len(u.Schema)-len(masked))
		for ci, c := range u.Schema {
			if !slices.Contains(masked, ci) {
				keep = append(keep, c.Name)
			}
		}
		out = out.Project(keep...)
		out.Name = "D_s"
	}
	return sp.applyUDFs(out)
}

// materializeScan is the original scratch row-scan materialization,
// kept as the reference implementation the incremental path is
// property-tested against.
func (sp *Space) materializeScan(bits Bitmap) *table.Table {
	if bits.Len() != len(sp.Entries) {
		panic(fmt.Sprintf("fst: bitmap width %d != space size %d", bits.Len(), len(sp.Entries)))
	}
	// Collect cleared literals per attribute index for one row scan.
	cleared := map[string][]table.Value{}
	maskedAttrs := map[string]bool{}
	bits.ForEachClear(func(i int) {
		e := sp.Entries[i]
		switch e.Kind {
		case EntryAttr:
			maskedAttrs[e.Attr] = true
		case EntryLiteral:
			cleared[e.Attr] = append(cleared[e.Attr], e.Literal.Value)
		}
	})
	u := sp.Universal
	out := table.New("D_s", u.Schema)
	colIdx := make(map[string]int, len(u.Schema))
	for i, c := range u.Schema {
		colIdx[c.Name] = i
	}
rows:
	for _, r := range u.Rows {
		for attr, vals := range cleared {
			ci := colIdx[attr]
			cell := r[ci]
			if cell.IsNull() {
				continue
			}
			for _, v := range vals {
				if cell.Equal(v) {
					continue rows
				}
			}
		}
		nr := r.Clone()
		for attr := range maskedAttrs {
			nr[colIdx[attr]] = table.Null
		}
		out.Rows = append(out.Rows, nr)
	}
	if len(maskedAttrs) > 0 {
		keep := make([]string, 0, len(u.Schema))
		for _, c := range u.Schema {
			if !maskedAttrs[c.Name] {
				keep = append(keep, c.Name)
			}
		}
		out = out.Project(keep...)
		out.Name = "D_s"
	}
	return sp.applyUDFs(out)
}
