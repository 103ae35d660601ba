package table

import (
	"math/rand"
	"testing"
)

func numericTable(n int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	tb := New("t", Schema{{Name: "x", Kind: KindFloat}, {Name: "c", Kind: KindString}})
	cats := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < n; i++ {
		tb.MustAppend(Row{Float(rng.Float64() * 100), Str(cats[rng.Intn(len(cats))])})
	}
	return tb
}

func TestDeriveLiteralsNumeric(t *testing.T) {
	tb := numericTable(200, 1)
	lits := DeriveLiterals(tb, "x", 4)
	if len(lits) == 0 || len(lits) > 4 {
		t.Fatalf("literal count = %d, want 1..4", len(lits))
	}
	for _, l := range lits {
		if l.Attr != "x" {
			t.Errorf("literal attr = %q, want x", l.Attr)
		}
	}
}

func TestDeriveLiteralsCategorical(t *testing.T) {
	tb := numericTable(100, 2)
	lits := DeriveLiterals(tb, "c", 30)
	if len(lits) != 5 {
		t.Fatalf("categorical literals = %d, want 5 (one per distinct)", len(lits))
	}
	capped := DeriveLiterals(tb, "c", 3)
	if len(capped) != 3 {
		t.Fatalf("capped categorical literals = %d, want 3", len(capped))
	}
}

// The column-fed numeric path must derive exactly the literals of the
// row scan: same k-means input in the same order, nulls excluded.
func TestDeriveLiteralsFromColumnParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tb := New("t", Schema{{Name: "x", Kind: KindFloat}, {Name: "n", Kind: KindInt}})
	for i := 0; i < 180; i++ {
		x := Value(Float(rng.Float64() * 50))
		n := Value(Int(int64(rng.Intn(9))))
		if i%11 == 0 {
			x = Null
		}
		if i%7 == 0 {
			n = Null
		}
		tb.MustAppend(Row{x, n})
	}
	for _, attr := range []string{"x", "n"} {
		idx := tb.Schema.Index(attr)
		vals := make([]float64, tb.NumRows())
		null := make([]bool, tb.NumRows())
		for i, r := range tb.Rows {
			if r[idx].IsNull() {
				null[i] = true
				continue
			}
			vals[i] = r[idx].AsFloat()
		}
		want := DeriveLiterals(tb, attr, 4)
		got := DeriveLiteralsFromColumn(attr, vals, null, 4)
		if len(got) != len(want) {
			t.Fatalf("%s: literal count %d != %d", attr, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: literal %d = %v, want %v", attr, i, got[i], want[i])
			}
		}
	}
}

// A fully-null column derives nothing, with or without a mask.
func TestDeriveLiteralsFromColumnEmpty(t *testing.T) {
	if got := DeriveLiteralsFromColumn("x", nil, nil, 4); got != nil {
		t.Errorf("empty column should yield no literals, got %v", got)
	}
	if got := DeriveLiteralsFromColumn("x", []float64{0, 0}, []bool{true, true}, 4); got != nil {
		t.Errorf("all-null column should yield no literals, got %v", got)
	}
}

func TestDeriveLiteralsMissingAttr(t *testing.T) {
	tb := numericTable(10, 3)
	if lits := DeriveLiterals(tb, "ghost", 5); lits != nil {
		t.Error("missing attr should yield no literals")
	}
}

func TestCompressShrinksAdom(t *testing.T) {
	tb := numericTable(300, 4)
	before := len(tb.ActiveDomain("x"))
	c := Compress(tb, "x", 5)
	after := len(c.ActiveDomain("x"))
	if after > 5 {
		t.Fatalf("compressed adom = %d, want <= 5", after)
	}
	if after >= before {
		t.Fatalf("compression should shrink adom (%d -> %d)", before, after)
	}
	if c.NumRows() != tb.NumRows() {
		t.Error("compression must keep row count")
	}
}

func TestCompressLeavesStringsAndNulls(t *testing.T) {
	tb := New("t", Schema{{Name: "x", Kind: KindFloat}, {Name: "s", Kind: KindString}})
	tb.MustAppend(Row{Null, Str("q")})
	tb.MustAppend(Row{Float(1), Str("r")})
	c := Compress(tb, "s", 2)
	if c.Rows[0][1].AsString() != "q" {
		t.Error("string column must pass through")
	}
	c = Compress(tb, "x", 2)
	if !c.Rows[0][0].IsNull() {
		t.Error("null cells must remain null")
	}
}

// Every compressed cell must equal one of the derived literal values, so
// Reduct by cluster literal removes complete clusters.
func TestCompressAlignsWithLiterals(t *testing.T) {
	tb := numericTable(150, 6)
	c := Compress(tb, "x", 3)
	lits := DeriveLiterals(c, "x", 3)
	allowed := map[string]bool{}
	for _, l := range lits {
		allowed[l.Value.Key()] = true
	}
	for _, v := range c.Column("x") {
		if v.IsNull() {
			continue
		}
		if !allowed[v.Key()] {
			t.Fatalf("cell %v not covered by any literal", v)
		}
	}
}
