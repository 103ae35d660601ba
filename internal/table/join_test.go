package table

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func leftTable() *Table {
	a := New("A", Schema{{Name: "id", Kind: KindInt}, {Name: "x", Kind: KindFloat}})
	a.MustAppend(Row{Int(1), Float(10)})
	a.MustAppend(Row{Int(2), Float(20)})
	a.MustAppend(Row{Int(3), Float(30)})
	return a
}

func rightTable() *Table {
	b := New("B", Schema{{Name: "id", Kind: KindInt}, {Name: "y", Kind: KindFloat}})
	b.MustAppend(Row{Int(2), Float(200)})
	b.MustAppend(Row{Int(3), Float(300)})
	b.MustAppend(Row{Int(4), Float(400)})
	return b
}

func TestEquiJoin(t *testing.T) {
	j := EquiJoin(leftTable(), rightTable())
	if j.NumRows() != 2 {
		t.Fatalf("equi join rows = %d, want 2", j.NumRows())
	}
	if j.NumCols() != 3 {
		t.Fatalf("equi join cols = %d, want 3 (shared id appears once)", j.NumCols())
	}
	// id=2 row joined correctly.
	found := false
	for _, r := range j.Rows {
		if r[j.Schema.Index("id")].AsInt() == 2 {
			found = true
			if r[j.Schema.Index("y")].AsFloat() != 200 {
				t.Error("join mismatched y for id=2")
			}
		}
	}
	if !found {
		t.Error("missing id=2 in equi join")
	}
}

func TestOuterJoinPreservesAll(t *testing.T) {
	j := OuterJoin(leftTable(), rightTable())
	if j.NumRows() != 4 {
		t.Fatalf("outer join rows = %d, want 4 (ids 1..4)", j.NumRows())
	}
	ids := map[int64]bool{}
	for _, r := range j.Rows {
		ids[r[j.Schema.Index("id")].AsInt()] = true
	}
	for want := int64(1); want <= 4; want++ {
		if !ids[want] {
			t.Errorf("outer join lost id=%d", want)
		}
	}
	// Unmatched left row (id=1) has null y; unmatched right (id=4) null x.
	for _, r := range j.Rows {
		id := r[j.Schema.Index("id")].AsInt()
		if id == 1 && !r[j.Schema.Index("y")].IsNull() {
			t.Error("id=1 should have null y")
		}
		if id == 4 && !r[j.Schema.Index("x")].IsNull() {
			t.Error("id=4 should have null x")
		}
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	a := New("A", Schema{{Name: "k", Kind: KindInt}, {Name: "x", Kind: KindFloat}})
	a.MustAppend(Row{Null, Float(1)})
	b := New("B", Schema{{Name: "k", Kind: KindInt}, {Name: "y", Kind: KindFloat}})
	b.MustAppend(Row{Null, Float(2)})
	if j := EquiJoin(a, b); j.NumRows() != 0 {
		t.Error("null join keys must not match")
	}
	// Outer join still preserves both unmatched sides.
	if j := OuterJoin(a, b); j.NumRows() != 2 {
		t.Errorf("outer join with null keys rows = %d, want 2", j.NumRows())
	}
}

func TestZipJoinNoSharedAttrs(t *testing.T) {
	a := New("A", Schema{{Name: "x", Kind: KindFloat}})
	a.MustAppend(Row{Float(1)})
	a.MustAppend(Row{Float(2)})
	b := New("B", Schema{{Name: "y", Kind: KindFloat}})
	b.MustAppend(Row{Float(9)})
	j := OuterJoin(a, b)
	if j.NumRows() != 2 || j.NumCols() != 2 {
		t.Fatalf("zip join shape = %dx%d, want 2x2", j.NumRows(), j.NumCols())
	}
	if j.Rows[1][1].IsNull() != true {
		t.Error("short side should null-pad")
	}
}

func TestUniversalSchemaIsUnion(t *testing.T) {
	u := Universal(leftTable(), rightTable())
	for _, name := range []string{"id", "x", "y"} {
		if !u.Schema.Has(name) {
			t.Errorf("universal schema missing %s", name)
		}
	}
	if u.Name != "D_U" {
		t.Errorf("universal name = %q", u.Name)
	}
	if empty := Universal(); empty.NumRows() != 0 {
		t.Error("empty universal should be empty")
	}
}

// Property: outer join row count is at least max of the inputs and at
// most the product, and the schema is the union.
func TestOuterJoinBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New("A", Schema{{Name: "k", Kind: KindInt}, {Name: "x", Kind: KindFloat}})
		b := New("B", Schema{{Name: "k", Kind: KindInt}, {Name: "y", Kind: KindFloat}})
		na, nb := 1+rng.Intn(8), 1+rng.Intn(8)
		for i := 0; i < na; i++ {
			a.MustAppend(Row{Int(int64(rng.Intn(4))), Float(rng.Float64())})
		}
		for i := 0; i < nb; i++ {
			b.MustAppend(Row{Int(int64(rng.Intn(4))), Float(rng.Float64())})
		}
		j := OuterJoin(a, b)
		if j.NumRows() < na && j.NumRows() < nb {
			return false
		}
		return j.NumRows() <= na*nb+na+nb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
