package fst

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/table"
)

// nullableUniversal is testUniversal with nulls sprinkled into the
// numeric columns and an int-typed literal attribute, covering every
// branch of the column fast path.
func nullableUniversal() *table.Table {
	u := table.New("D_U", table.Schema{
		{Name: "id", Kind: table.KindInt},
		{Name: "x", Kind: table.KindFloat},
		{Name: "n", Kind: table.KindInt},
		{Name: "season", Kind: table.KindString},
		{Name: "target", Kind: table.KindInt},
	})
	seasons := []string{"spring", "summer"}
	for i := 0; i < 24; i++ {
		x := table.Float(float64(i % 4))
		n := table.Int(int64(i % 3))
		if i%7 == 0 {
			x = table.Null
		}
		if i%5 == 0 {
			n = table.Null
		}
		u.MustAppend(table.Row{
			table.Int(int64(i)), x, n,
			table.Str(seasons[i%2]),
			table.Int(int64(i % 2)),
		})
	}
	return u
}

// nullableSpace builds a space over nullableUniversal. src, when not
// nil, is pointed at that table and becomes the space's column source.
func nullableSpace(src *tableColumns) *Space {
	u := nullableUniversal()
	cfg := SpaceConfig{
		MaxLiteralsPerAttr: 4,
		SkipLiteralAttrs:   []string{"id"},
		ProtectedAttrs:     []string{"id"},
	}
	if src != nil {
		src.u = u
		cfg.Columns = src
	}
	return NewSpace(u, "target", cfg)
}

// tableColumns is a ColumnSource decoding numeric columns of a table —
// the test stand-in for the ML encoder's frozen matrix. It records the
// attributes asked for, so tests can see which ones took the fast path.
type tableColumns struct {
	u     *table.Table
	asked map[string]bool
	// short truncates every column, simulating a source frozen over a
	// different table revision; the index build must reject it.
	short bool
}

func (s *tableColumns) Column(name string) ([]float64, []bool, bool) {
	if s.asked == nil {
		s.asked = map[string]bool{}
	}
	s.asked[name] = true
	ci := s.u.Schema.Index(name)
	if ci < 0 || s.u.Schema[ci].Kind == table.KindString {
		return nil, nil, false
	}
	n := len(s.u.Rows)
	if s.short && n > 0 {
		n--
	}
	vals := make([]float64, n)
	var null []bool
	for ri := 0; ri < n; ri++ {
		cell := s.u.Rows[ri][ci]
		if cell.IsNull() {
			if null == nil {
				null = make([]bool, n)
			}
			null[ri] = true
			continue
		}
		vals[ri] = cell.AsFloat()
	}
	return vals, null, true
}

// forceIndex builds the row index now.
func forceIndex(sp *Space) *rowIndex {
	sp.idxOnce.Do(sp.buildRowIndex)
	return sp.idx
}

// TestRowIndexColumnSourceParity: the index built from a column source
// is bit-identical to the scan-built one — per literal entry, word by
// word — and the numeric attributes actually took the fast path.
func TestRowIndexColumnSourceParity(t *testing.T) {
	scan := forceIndex(nullableSpace(nil))
	src := &tableColumns{}
	spFast := nullableSpace(src)
	// Literal derivation consulted the source too; count only the
	// index build from here on.
	src.asked = nil
	fast := forceIndex(spFast)

	for i := range scan.litRows {
		a, b := scan.litRows[i], fast.litRows[i]
		if (a == nil) != (b == nil) {
			t.Fatalf("entry %d: bitmap presence differs", i)
		}
		for wi := range a {
			if a[wi] != b[wi] {
				t.Errorf("entry %d (%s) word %d: scan %064b != source %064b",
					i, spFast.Entries[i], wi, a[wi], b[wi])
			}
		}
	}
	if !src.asked["x"] || !src.asked["n"] {
		t.Errorf("numeric attributes never consulted the source (asked %v)", src.asked)
	}
	if src.asked["id"] {
		t.Error("skip-literal attribute should not reach the source")
	}
}

// TestRowIndexShortColumnFallsBack: a source whose columns do not
// match the universal row count is ignored, and materialization stays
// correct through the scan path.
func TestRowIndexShortColumnFallsBack(t *testing.T) {
	scan := forceIndex(nullableSpace(nil))
	fast := forceIndex(nullableSpace(&tableColumns{short: true}))
	for i := range scan.litRows {
		for wi := range scan.litRows[i] {
			if scan.litRows[i][wi] != fast.litRows[i][wi] {
				t.Fatalf("entry %d word %d: short source corrupted the index", i, wi)
			}
		}
	}
}

// Property: with a column source wired, incremental materialization
// still equals the scratch row-scan reference on randomized bitmaps —
// the source changes the cost of building the index, never a result.
func TestMaterializeWithColumnSourceMatchesScan(t *testing.T) {
	sp := nullableSpace(&tableColumns{})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := sp.FullBitmap()
		for i := 0; i < bits.Len(); i++ {
			if rng.Intn(3) == 0 {
				bits.Clear(i)
			}
		}
		return sameTable(sp.Materialize(bits), sp.materializeScan(bits))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
