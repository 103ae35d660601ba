package table

import (
	"testing"
)

func sampleTable(t *testing.T) *Table {
	t.Helper()
	tb := New("s", Schema{
		{Name: "id", Kind: KindInt},
		{Name: "x", Kind: KindFloat},
		{Name: "cat", Kind: KindString},
	})
	tb.MustAppend(Row{Int(1), Float(0.5), Str("a")})
	tb.MustAppend(Row{Int(2), Float(1.5), Str("b")})
	tb.MustAppend(Row{Int(3), Null, Str("a")})
	tb.MustAppend(Row{Int(4), Float(1.5), Null})
	return tb
}

func TestAppendWidthMismatch(t *testing.T) {
	tb := New("t", Schema{{Name: "a", Kind: KindInt}})
	if err := tb.Append(Row{Int(1), Int(2)}); err == nil {
		t.Fatal("expected width-mismatch error")
	}
}

func TestSchemaIndexHas(t *testing.T) {
	tb := sampleTable(t)
	if tb.Schema.Index("x") != 1 {
		t.Errorf("Index(x) = %d, want 1", tb.Schema.Index("x"))
	}
	if tb.Schema.Index("missing") != -1 {
		t.Error("Index of missing attr should be -1")
	}
	if !tb.Schema.Has("cat") || tb.Schema.Has("nope") {
		t.Error("Has misbehaves")
	}
}

func TestActiveDomain(t *testing.T) {
	tb := sampleTable(t)
	ad := tb.ActiveDomain("x")
	if len(ad) != 2 {
		t.Fatalf("adom(x) size = %d, want 2 (nulls excluded, dup collapsed)", len(ad))
	}
	if !ad[0].Equal(Float(0.5)) || !ad[1].Equal(Float(1.5)) {
		t.Errorf("adom(x) = %v, want sorted [0.5 1.5]", ad)
	}
	if got := len(tb.ActiveDomain("cat")); got != 2 {
		t.Errorf("adom(cat) size = %d, want 2", got)
	}
	if tb.ActiveDomain("missing") != nil {
		t.Error("adom of missing attr should be nil")
	}
}

func TestProjectOrderAndSkip(t *testing.T) {
	tb := sampleTable(t)
	p := tb.Project("cat", "id", "ghost")
	if p.NumCols() != 2 {
		t.Fatalf("projected cols = %d, want 2", p.NumCols())
	}
	if p.Schema[0].Name != "cat" || p.Schema[1].Name != "id" {
		t.Errorf("projection order broken: %v", p.Schema.Names())
	}
	if p.NumRows() != tb.NumRows() {
		t.Error("projection must preserve row count")
	}
}

func TestDropColumn(t *testing.T) {
	tb := sampleTable(t)
	d := tb.DropColumn("x")
	if d.Schema.Has("x") {
		t.Error("x should be gone")
	}
	if d.NumCols() != 2 || d.NumRows() != 4 {
		t.Errorf("drop produced %dx%d, want 2x4", d.NumCols(), d.NumRows())
	}
	same := tb.DropColumn("ghost")
	if same.NumCols() != tb.NumCols() {
		t.Error("dropping a missing column must be a no-op clone")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tb := sampleTable(t)
	cp := tb.Clone()
	cp.Rows[0][0] = Int(99)
	if tb.Rows[0][0].AsInt() == 99 {
		t.Error("Clone must deep-copy rows")
	}
}

func TestLiteralString(t *testing.T) {
	l := Literal{Attr: "year", Value: Int(2013)}
	if l.String() != "year=2013" {
		t.Errorf("Literal.String() = %q", l.String())
	}
}
