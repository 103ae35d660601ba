package ml

import (
	"fmt"
	"sync"

	"repro/internal/table"
)

// AppendRows admits a batch of rows about to be appended to the
// encoder's universal table — the ml side of the space streaming
// lifecycle (fst.AppendableColumns). String domains are frozen at
// construction: a row of the wrong width, or one carrying a string
// value outside a column's universal active domain (or a new string
// target class), fails the whole batch, and nothing is changed. An
// accepted batch drops the built matrix, so the next use builds it cold
// over the grown table: after AppendRows and the table append, the
// encoder is a cold encoder over the concatenated table by
// construction.
//
// AppendRows must not race valuations reading the matrix; the caller
// (Space.Append behind the serving drain gate) sequences it.
func (e *TableEncoder) AppendRows(rows []table.Row) error {
	u := e.u
	tIdx := u.Schema.Index(e.target)
	for ri, r := range rows {
		if len(r) != len(u.Schema) {
			return fmt.Errorf("ml: append row %d has %d cells, schema has %d", ri, len(r), len(u.Schema))
		}
		for ci, c := range u.Schema {
			if c.Kind != table.KindString || e.skip[c.Name] {
				continue
			}
			v := r[ci]
			if v.IsNull() {
				continue
			}
			codec := e.cols[c.Name]
			if ci == tIdx {
				codec = e.tgt
			}
			if codec == nil {
				continue
			}
			if _, ok := codec.index[v.Key()]; !ok {
				return fmt.Errorf("ml: append row %d: value %v of column %q outside its frozen universal domain", ri, v, c.Name)
			}
		}
	}
	e.mxOnce = sync.Once{}
	e.mx = nil
	return nil
}
