package fst

import (
	"testing"
)

func TestOpGenForward(t *testing.T) {
	s := &State{Bits: BitmapOf(true, true, false), Level: 2}
	kids := OpGen(s, Forward)
	if len(kids) != 2 {
		t.Fatalf("forward children = %d, want 2 (one per set bit)", len(kids))
	}
	for _, k := range kids {
		if k.Level != 3 {
			t.Error("child level should be parent+1")
		}
		if k.Bits.Ones() != 1 {
			t.Error("forward child should clear exactly one bit")
		}
	}
}

func TestOpGenBackward(t *testing.T) {
	s := &State{Bits: BitmapOf(true, false, false)}
	kids := OpGen(s, Backward)
	if len(kids) != 2 {
		t.Fatalf("backward children = %d, want 2 (one per cleared bit)", len(kids))
	}
	for _, k := range kids {
		if k.Bits.Ones() != 2 {
			t.Error("backward child should set exactly one bit")
		}
	}
}

func TestOpGenDoesNotMutateParent(t *testing.T) {
	s := &State{Bits: BitmapOf(true, true)}
	_ = OpGen(s, Forward)
	if s.Bits.Ones() != 2 {
		t.Error("OpGen must not mutate the parent bitmap")
	}
}

func TestRunningGraphDedup(t *testing.T) {
	g := NewRunningGraph()
	a := &State{Bits: BitmapOf(true)}
	b := &State{Bits: BitmapOf(true)}
	ra := g.AddNode(a)
	rb := g.AddNode(b)
	if ra != rb {
		t.Error("identical bitmaps should resolve to one node")
	}
	if g.NumNodes() != 1 {
		t.Errorf("nodes = %d, want 1", g.NumNodes())
	}
	c := g.AddNode(&State{Bits: BitmapOf(false)})
	g.AddEdge(ra, c, 0, Forward)
	if len(g.Edges) != 1 {
		t.Error("edge not recorded")
	}
}

func TestBackStCoversTargetClasses(t *testing.T) {
	sp := testSpace()
	bits := BackSt(sp)
	d := sp.Materialize(bits)
	// Every target class present in the universal table must survive.
	want := sp.Universal.ActiveDomain("target")
	got := d.ActiveDomain("target")
	if len(got) != len(want) {
		t.Fatalf("back state covers %d target classes, want %d", len(got), len(want))
	}
	// And the back state should be genuinely smaller than universal.
	if d.NumRows() >= sp.Universal.NumRows() {
		t.Errorf("back state rows = %d, not smaller than universal %d", d.NumRows(), sp.Universal.NumRows())
	}
}

func TestBackStKeepsAttrEntries(t *testing.T) {
	sp := testSpace()
	bits := BackSt(sp)
	if !bits.Get(sp.AttrEntry("x")) || !bits.Get(sp.AttrEntry("season")) {
		t.Error("BackSt should keep attribute entries set")
	}
}

func TestStateValuated(t *testing.T) {
	s := &State{}
	if s.Valuated() {
		t.Error("fresh state is not valuated")
	}
	s.Perf = []float64{0.1}
	if !s.Valuated() {
		t.Error("state with perf should be valuated")
	}
}
