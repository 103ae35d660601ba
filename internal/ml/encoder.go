package ml

import (
	"sync"

	"repro/internal/table"
)

// TableEncoder holds the frozen encoding state of a space's universal
// table: one key→domain-position map per string column, built once, and
// the universal table's Matrix, built on first use. Every dataset the
// space valuates is a selection over that table, so both valuation
// routes encode through one Matrix construction: the rows route views
// the universal Matrix at a state's rows (Matrix.View), and Encode
// builds a Matrix over a materialized child with the same string
// domains and views all of its rows. Any child's string values are a
// subset of the universal domain, and subsets preserve sorted order, so
// the view's child-local ordinals are exactly FromTable's — a property
// the tests assert.
//
// Skipped columns (NewTableEncoderSkip) are excluded from the encoding
// as if the caller had dropped them first: task models hand Encode the
// materialized child directly instead of cloning it through
// DropColumn("id").
//
// Apart from AppendRows, which the caller sequences between runs, the
// encoder is read-only, so concurrent valuations (worker pools,
// parallel engine runs) share one instance.
type TableEncoder struct {
	target string
	cols   map[string]*stringCodec
	tgt    *stringCodec
	u      *table.Table
	skip   map[string]bool

	mxOnce sync.Once
	mx     *Matrix
}

// stringCodec maps a string column's universal active-domain values to
// their sorted positions.
type stringCodec struct {
	index map[string]int
}

func newStringCodec(u *table.Table, name string) *stringCodec {
	c := &stringCodec{index: map[string]int{}}
	for i, v := range u.ActiveDomain(name) {
		c.index[v.Key()] = i
	}
	return c
}

// NewTableEncoder builds the shared encoder of a universal table. Pass
// the same table that materialized children derive from and that
// appends grow, so the matrix built after AppendRows holds the new rows.
func NewTableEncoder(u *table.Table, target string) *TableEncoder {
	return NewTableEncoderSkip(u, target)
}

// NewTableEncoderSkip is NewTableEncoder with columns the models never
// consume (identifier columns, e.g. "id"): Encode ignores them in
// place, so callers stop cloning every child table through DropColumn
// before encoding.
func NewTableEncoderSkip(u *table.Table, target string, skip ...string) *TableEncoder {
	e := &TableEncoder{target: target, cols: map[string]*stringCodec{}, u: u, skip: map[string]bool{}}
	for _, s := range skip {
		e.skip[s] = true
	}
	for _, c := range u.Schema {
		if c.Kind != table.KindString || e.skip[c.Name] {
			continue
		}
		codec := newStringCodec(u, c.Name)
		if c.Name == target {
			e.tgt = codec
		} else {
			e.cols[c.Name] = codec
		}
	}
	return e
}

// Matrix returns the frozen columnar encoding of the universal table,
// built on first use (and again after AppendRows) and shared by all
// concurrent valuations.
func (e *TableEncoder) Matrix() *Matrix {
	e.mxOnce.Do(func() { e.mx, _ = e.buildMatrix(e.u) })
	return e.mx
}

// Column exposes a numeric column of the frozen matrix (see
// Matrix.Column), building the matrix on first use. It makes the
// encoder a column source for the FST space's row-index construction:
// the space reuses the statistics already decoded for the estimator
// instead of re-deriving them cell by cell from the universal table.
func (e *TableEncoder) Column(name string) (vals []float64, null []bool, ok bool) {
	return e.Matrix().Column(name)
}

// Encode converts a materialized child table into the Data FromTable(t,
// target) would produce — same ordinal codes, same mean imputation,
// same row filtering — as the View of every row of a Matrix built over
// t with the universal string domains. A child carrying a string value
// outside those domains (a UDF may synthesize one) is encoded by
// FromTable instead.
func (e *TableEncoder) Encode(t *table.Table) Data {
	m, ok := e.buildMatrix(t)
	if !ok {
		for name := range e.skip {
			t = t.DropColumn(name)
		}
		return FromTable(t, e.target)
	}
	rows := make([]int, m.nRows)
	for i := range rows {
		rows[i] = i
	}
	return m.View(rows, nil)
}
