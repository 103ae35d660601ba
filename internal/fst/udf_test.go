package fst

import (
	"testing"

	"repro/internal/table"
)

func TestImputeMeansUDF(t *testing.T) {
	sp := testSpace()
	sp.RegisterUDF(ImputeMeansUDF("target"))
	bits := sp.FullBitmap()
	// Mask x, then verify... masking drops the column, so instead build
	// a table with a null directly through the UDF.
	udf := ImputeMeansUDF("target")
	tb := table.New("t", table.Schema{
		{Name: "x", Kind: table.KindFloat},
		{Name: "target", Kind: table.KindInt},
	})
	tb.MustAppend(table.Row{table.Float(2), table.Int(0)})
	tb.MustAppend(table.Row{table.Null, table.Int(1)})
	tb.MustAppend(table.Row{table.Float(4), table.Int(0)})
	out := udf(tb)
	if got := out.Rows[1][0].AsFloat(); got != 3 {
		t.Errorf("imputed value = %v, want 3 (mean of 2,4)", got)
	}
	// Target column untouched even when null-free requirement not met.
	if out.Rows[1][1].AsInt() != 1 {
		t.Error("target column must pass through")
	}
	// Materialize applies the registered chain without error.
	d := sp.Materialize(bits)
	if d.NumRows() != sp.Universal.NumRows() {
		t.Error("UDF chain changed the full-bitmap row count unexpectedly")
	}
}

func TestDropSparseRowsUDF(t *testing.T) {
	udf := DropSparseRowsUDF(0.5)
	tb := table.New("t", table.Schema{
		{Name: "a", Kind: table.KindFloat},
		{Name: "b", Kind: table.KindFloat},
	})
	tb.MustAppend(table.Row{table.Float(1), table.Float(2)}) // 0% null: keep
	tb.MustAppend(table.Row{table.Null, table.Float(2)})     // 50% null: keep (not >)
	tb.MustAppend(table.Row{table.Null, table.Null})         // 100% null: drop
	out := udf(tb)
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", out.NumRows())
	}
}

func TestUDFChainOrder(t *testing.T) {
	sp := testSpace()
	var order []int
	sp.RegisterUDF(func(d *table.Table) *table.Table {
		order = append(order, 1)
		return d
	})
	sp.RegisterUDF(func(d *table.Table) *table.Table {
		order = append(order, 2)
		return d
	})
	sp.Materialize(sp.FullBitmap())
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("UDF order = %v, want [1 2]", order)
	}
}

// TestUDFsLeaveUniversalIntact: UDFs modify the table Materialize hands
// them in place, so that table must share no row with the universal
// table. Every state one flip from s_U, and s_U itself, materializes
// through both routes under a row-dropping and an imputing UDF; the
// universal table's cells, nulls included, must read as before.
func TestUDFsLeaveUniversalIntact(t *testing.T) {
	u := table.New("D_U", table.Schema{
		{Name: "a", Kind: table.KindInt},
		{Name: "b", Kind: table.KindFloat},
		{Name: "c", Kind: table.KindInt},
		{Name: "target", Kind: table.KindInt},
	})
	for i := 0; i < 36; i++ {
		row := table.Row{table.Int(int64(i % 3)), table.Float(float64(i % 4)), table.Int(int64(i % 5)), table.Int(int64(i % 2))}
		if i%3 == 0 {
			row[1] = table.Null
		}
		if i%4 == 0 {
			row[2] = table.Null
		}
		u.MustAppend(row)
	}
	before := u.Clone()
	sp := NewSpace(u, "target", SpaceConfig{MaxLiteralsPerAttr: 4})
	sp.RegisterUDF(DropSparseRowsUDF(0.4))
	sp.RegisterUDF(ImputeMeansUDF("target"))
	states := []Bitmap{sp.FullBitmap()}
	for i := range sp.Entries {
		b := sp.FullBitmap()
		b.Clear(i)
		states = append(states, b)
	}
	if d := sp.Materialize(sp.FullBitmap()); d.NumRows() != u.NumRows()-3 {
		t.Fatalf("the dropping UDF kept %d of %d rows, want all but the 3 half-null ones", d.NumRows(), u.NumRows())
	}
	for _, b := range states {
		sp.Materialize(b)
		sp.materializeScan(b)
	}
	for ri, r := range u.Rows {
		for ci, v := range r {
			w := before.Rows[ri][ci]
			if v.IsNull() != w.IsNull() || (!v.IsNull() && !v.Equal(w)) {
				t.Fatalf("universal cell (%d,%d) is %v after materializing, was %v", ri, ci, v, w)
			}
		}
	}
}
