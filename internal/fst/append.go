package fst

import (
	"fmt"
	"sync"

	"repro/internal/table"
)

// This file is the streaming side of the space lifecycle: rows arrive
// after construction and are appended to the universal table; the
// structures derived from it — the column source's matrix, the
// per-literal row bitmaps — are dropped and built again from the grown
// table on next use; and the version counter advances so the memo
// (TestSet) can invalidate exactly the states whose selected row set
// the new tuples changed. The entry layout (Entries, attrEntry,
// litEntries) is frozen forever: appended rows never add literal
// clusters, so every StateKey keeps meaning the same state and the
// Zobrist keys never need rehashing. The determinism contract: a run
// after Append is byte-identical to a cold run over the concatenated
// table through a space sharing the same entry layout (Rebuild), and
// it holds by construction, since every derived structure is built
// cold.
//
// Append must not race runs. The serving layer enforces that with a
// per-shard drain gate (modis/serve); library users sequence Append
// between Engine runs themselves.

// AppendableColumns is the optional append interface of a
// ColumnSource: sources whose decoded columns follow the universal
// table (the ML encoder's matrix) implement it, and Space.Append calls
// it before touching any space structure — a source that rejects the
// rows (e.g. a string value outside its frozen domain) aborts the
// append with nothing mutated; one that accepts them drops its decoded
// columns, to be decoded again from the grown table.
type AppendableColumns interface {
	ColumnSource
	AppendRows(rows []table.Row) error
}

// Version returns the space's current table version: the number of
// committed Append batches since construction.
func (sp *Space) Version() uint64 { return sp.version }

// RowsAtVersion returns the universal row count as of version v
// (clamped to the current row count for future versions).
func (sp *Space) RowsAtVersion(v uint64) int {
	if int(v) < len(sp.verRows) {
		return sp.verRows[v]
	}
	return len(sp.Universal.Rows)
}

// Append commits a batch of rows to the universal table and advances
// the table version. The column source (when it implements
// AppendableColumns) and the row index are dropped, so the next use
// builds both cold over the grown table; the version→row-count history
// grows by one entry. The entry layout is untouched — new rows match
// the existing literals or none. It returns the new version.
//
// Append is not safe against concurrent runs: callers must quiesce
// Materialize/RowsFor/valuation traffic first (the serving layer's
// drain gate does). An error leaves the space unmutated.
func (sp *Space) Append(rows []table.Row) (uint64, error) {
	if len(rows) == 0 {
		return sp.version, fmt.Errorf("fst: append requires at least one row")
	}
	width := len(sp.Universal.Schema)
	for ri, r := range rows {
		if len(r) != width {
			return sp.version, fmt.Errorf("fst: append row %d has %d cells, schema has %d", ri, len(r), width)
		}
	}
	// The column source validates first: its frozen string domains are
	// the one thing an append can violate, and rejecting here leaves the
	// universal table and row index untouched.
	if ac, ok := sp.colSrc.(AppendableColumns); ok {
		if err := ac.AppendRows(rows); err != nil {
			return sp.version, err
		}
	}
	if len(sp.verRows) == 0 {
		sp.verRows = append(sp.verRows, len(sp.Universal.Rows))
	}
	for _, r := range rows {
		sp.Universal.MustAppend(r)
	}
	// Append never races runs, so no Materialize or RowsFor is inside
	// the once being reset.
	sp.idxOnce = sync.Once{}
	sp.idx = nil
	sp.version++
	sp.verRows = append(sp.verRows, len(sp.Universal.Rows))
	return sp.version, nil
}

// SelectionUnchanged reports whether a state's selected row set is
// unaffected by every row appended at or after universal row index
// fromRow: true iff each such row is removed by at least one of the
// state's cleared literals. The state is given as its feature vector
// (Bitmap.Floats — 1.0 set, 0.0 cleared, aligned with Entries), which
// is exactly what the memo records per test, so replayed WAL entries
// can be validated without reconstructing bitmaps. Cleared attribute
// entries don't matter here: masking a column never removes a row, so
// a surviving appended row changes the state's dataset regardless of
// masks. A feature vector of the wrong width is reported changed.
func (sp *Space) SelectionUnchanged(feats []float64, fromRow int) bool {
	if len(feats) != len(sp.Entries) {
		return false
	}
	sp.idxOnce.Do(sp.buildRowIndex)
	ix := sp.idx
	if fromRow >= ix.rows {
		return true
	}
	var cleared []int
	for i, f := range feats {
		if f < 0.5 && sp.Entries[i].Kind == EntryLiteral {
			cleared = append(cleared, i)
		}
	}
	fw, lw := fromRow/wordBits, (ix.rows-1)/wordBits
	for wi := fw; wi <= lw; wi++ {
		need := ix.liveMask(wi)
		if wi == fw {
			need &^= 1<<(uint(fromRow)%wordBits) - 1
		}
		if need == 0 {
			continue
		}
		var removed uint64
		for _, i := range cleared {
			removed |= ix.litRows[i][wi]
		}
		if need&^removed != 0 {
			return false
		}
	}
	return true
}

// Rebuild returns a cold space over u with this space's exact entry
// layout — the reference constructor of the streaming determinism
// contract: a space that Append-ed its way to the concatenated table
// must behave byte-identically to Rebuild over that table built from
// scratch (fresh row index, fresh column decode). NewSpace is not
// that reference: it re-derives literal clusters, which appended rows
// would shift. The immutable layout (Entries, entry maps, UDFs) is
// shared; all lazily-built state starts empty. cols, when not nil, is
// a column source decoded over u (typically a fresh encoder's matrix)
// that the row index is built from, as SpaceConfig.Columns would; the
// index is bit-identical either way, so it changes only the build cost.
func (sp *Space) Rebuild(u *table.Table, cols ColumnSource) *Space {
	return &Space{
		Universal:  u,
		Target:     sp.Target,
		Entries:    sp.Entries,
		attrEntry:  sp.attrEntry,
		litEntries: sp.litEntries,
		udfs:       sp.udfs,
		colSrc:     cols,
	}
}

// Append commits rows through the configuration: the space appends
// them and bumps the table version, then the memo advances
// to that version, dropping exactly the tests whose selected row set
// the new tuples changed (SelectionUnchanged) and carrying every
// other valuation forward. It returns the new version and the number
// of memoized valuations invalidated. Like Space.Append, it must not
// race in-flight runs.
func (c *Config) Append(rows []table.Row) (version uint64, invalidated int, err error) {
	from := len(c.Space.Universal.Rows)
	version, err = c.Space.Append(rows)
	if err != nil {
		return version, 0, err
	}
	if c.Tests == nil {
		return version, 0, nil
	}
	invalidated = c.Tests.AdvanceTo(version, func(t *Test) bool {
		return c.Space.SelectionUnchanged(t.Features, from)
	})
	return version, invalidated, nil
}
