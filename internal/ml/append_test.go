package ml

import (
	"math/rand"
	"testing"

	"repro/internal/table"
)

// streamRow synthesizes row i over encoderUniversal's schema, cycling
// the frozen string domains and mixing fresh float values (some new
// distinct, some repeats, occasional nulls), so the grown table has new
// dense ranks and new nulls.
func streamRow(i int) table.Row {
	seasons := []string{"spring", "summer", "fall", "winter"}
	grades := []string{"a", "b", "c"}
	r := table.Row{
		table.Str(seasons[i%4]),
		table.Str(grades[i%3]),
		table.Float(float64(i%11) + float64(i%3)/4),
		table.Float(float64(i) / 9),
	}
	if i%7 == 0 {
		r[2] = table.Null
	}
	if i%9 == 0 {
		r[3] = table.Null
	}
	return r
}

// sameMatrix asserts two matrices are bit-identical, column by column.
func sameMatrix(t *testing.T, got, want *Matrix) {
	t.Helper()
	if got.nRows != want.nRows || len(got.cols) != len(want.cols) {
		t.Fatalf("shape %dx%d vs %dx%d", got.nRows, len(got.cols), want.nRows, len(want.cols))
	}
	for ci := range want.cols {
		g, w := &got.cols[ci], &want.cols[ci]
		if g.name != w.name || g.isStr != w.isStr || g.nRank != w.nRank {
			t.Fatalf("column %d: header %q/%v/%d vs %q/%v/%d",
				ci, g.name, g.isStr, g.nRank, w.name, w.isStr, w.nRank)
		}
		for ri := 0; ri < want.nRows; ri++ {
			gn := g.null != nil && g.null[ri]
			wn := w.null != nil && w.null[ri]
			if gn != wn {
				t.Fatalf("column %q row %d: null %v vs %v", w.name, ri, gn, wn)
			}
			if wn {
				continue
			}
			if g.vals[ri] != w.vals[ri] || g.rank[ri] != w.rank[ri] {
				t.Fatalf("column %q row %d: val/rank %v/%d vs %v/%d",
					w.name, ri, g.vals[ri], g.rank[ri], w.vals[ri], w.rank[ri])
			}
		}
		if len(g.distinct) != len(w.distinct) {
			t.Fatalf("column %q: %d distinct vs %d", w.name, len(g.distinct), len(w.distinct))
		}
		for i := range w.distinct {
			if g.distinct[i] != w.distinct[i] {
				t.Fatalf("column %q distinct[%d]: %v vs %v", w.name, i, g.distinct[i], w.distinct[i])
			}
		}
	}
	if got.ystr != want.ystr || got.ynRank != want.ynRank {
		t.Fatalf("target header diverges")
	}
	for ri := 0; ri < want.nRows; ri++ {
		if got.ynull[ri] != want.ynull[ri] {
			t.Fatalf("target row %d: null %v vs %v", ri, got.ynull[ri], want.ynull[ri])
		}
		if !want.ynull[ri] && got.yvals[ri] != want.yvals[ri] {
			t.Fatalf("target row %d: %v vs %v", ri, got.yvals[ri], want.yvals[ri])
		}
	}
}

// The streaming contract of the encoder: AppendRows over any sequence
// of batches leaves the matrix bit-identical to a cold encoder built
// over the concatenated table.
func TestAppendRowsMatchesColdBuild(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := encoderUniversal()
		enc := NewTableEncoder(u, "target")
		enc.Matrix() // freeze the cold matrix before rows arrive

		next := 1000
		var all []table.Row
		for b := 0; b < 1+rng.Intn(4); b++ {
			var batch []table.Row
			for i := 0; i < 1+rng.Intn(9); i++ {
				batch = append(batch, streamRow(next))
				next++
			}
			if err := enc.AppendRows(batch); err != nil {
				t.Fatal(err)
			}
			// The universal table advances with the matrix, as
			// Space.Append sequences it.
			for _, r := range batch {
				u.MustAppend(r)
			}
			all = append(all, batch...)
		}

		u2, err := table.Concat("D_U", encoderUniversal(), all)
		if err != nil {
			t.Fatal(err)
		}
		cold := NewTableEncoder(u2, "target")
		sameMatrix(t, enc.Matrix(), cold.Matrix())

		// The Column view (what spaces read for the row index) agrees too.
		for _, name := range []string{"season", "grade", "x"} {
			gv, gn, ok1 := enc.Column(name)
			wv, wn, ok2 := cold.Column(name)
			if ok1 != ok2 || len(gv) != len(wv) {
				t.Fatalf("seed %d: Column(%q) shape diverges", seed, name)
			}
			for i := range wv {
				gnull := gn != nil && gn[i]
				wnull := wn != nil && wn[i]
				if gnull != wnull || (!wnull && gv[i] != wv[i]) {
					t.Fatalf("seed %d: Column(%q)[%d] diverges", seed, name, i)
				}
			}
		}
	}
}

// Rejection is atomic: a row with a string outside the frozen
// universal domain (or a new target class) fails the whole batch and
// mutates nothing.
func TestAppendRowsRejectsForeignStringsAtomically(t *testing.T) {
	u := table.New("D_U", table.Schema{
		{Name: "season", Kind: table.KindString},
		{Name: "x", Kind: table.KindFloat},
		{Name: "label", Kind: table.KindString},
	})
	for i := 0; i < 12; i++ {
		u.MustAppend(table.Row{
			table.Str([]string{"spring", "summer"}[i%2]),
			table.Float(float64(i % 5)),
			table.Str([]string{"low", "high"}[i%2]),
		})
	}
	enc := NewTableEncoder(u, "label")
	before := enc.Matrix().nRows

	bad := [][]table.Row{
		{ // foreign feature string
			{table.Str("spring"), table.Float(1), table.Str("low")},
			{table.Str("monsoon"), table.Float(2), table.Str("high")},
		},
		{ // foreign target class
			{table.Str("summer"), table.Float(3), table.Str("mid")},
		},
		{ // arity mismatch
			{table.Str("spring"), table.Float(1)},
		},
	}
	for i, batch := range bad {
		if err := enc.AppendRows(batch); err == nil {
			t.Errorf("bad batch %d accepted", i)
		}
	}
	m := enc.Matrix()
	if m.nRows != before {
		t.Fatalf("rejected batches grew the matrix: %d rows, want %d", m.nRows, before)
	}
	for _, c := range m.cols {
		if len(c.vals) != before || len(c.rank) != before {
			t.Fatalf("column %q mutated by a rejected batch", c.name)
		}
	}

	// Null strings are fine — they assert no domain membership. The
	// accepted row lands in the table, as Space.Append sequences it.
	ok := table.Row{table.Null, table.Float(1), table.Null}
	if err := enc.AppendRows([]table.Row{ok}); err != nil {
		t.Fatalf("null cells rejected: %v", err)
	}
	u.MustAppend(ok)
	if enc.Matrix().nRows != before+1 {
		t.Fatal("accepted batch did not land")
	}
}

// Encode keeps reproducing FromTable on children drawn from the grown
// table — the estimator-facing guarantee that appended rows behave
// exactly like rows present at construction.
func TestEncodeAfterAppendMatchesFromTable(t *testing.T) {
	u := encoderUniversal()
	enc := NewTableEncoder(u, "target")
	var batch []table.Row
	for i := 0; i < 15; i++ {
		batch = append(batch, streamRow(i))
	}
	if err := enc.AppendRows(batch); err != nil {
		t.Fatal(err)
	}
	for _, r := range batch {
		u.MustAppend(r)
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		child := randomChild(u, rng)
		want := FromTable(child, "target")
		got := gathered(enc.Encode(child))
		if len(got.X) != len(want.X) {
			t.Fatalf("trial %d: row count %d != %d", trial, len(got.X), len(want.X))
		}
		for i := range got.X {
			if got.Y[i] != want.Y[i] {
				t.Fatalf("trial %d: y[%d] diverges", trial, i)
			}
			for j := range got.X[i] {
				if got.X[i][j] != want.X[i][j] {
					t.Fatalf("trial %d: x[%d][%d] diverges", trial, i, j)
				}
			}
		}
	}
}
