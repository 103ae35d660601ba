package fst

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/skyline"
	"repro/internal/table"
)

// appendUniversal builds a small universal table with enough value
// structure for literal clusters on both attributes.
func appendUniversal(rows int) *table.Table {
	u := table.New("D_U", table.Schema{
		{Name: "a", Kind: table.KindFloat},
		{Name: "b", Kind: table.KindFloat},
		{Name: "target", Kind: table.KindInt},
	})
	for i := 0; i < rows; i++ {
		u.MustAppend(appendRow(i))
	}
	return u
}

// appendRow synthesizes row i of the appendUniversal value pattern —
// used both to seed tables and to generate streamed batches, so
// appended rows always land inside the frozen literal clusters' value
// range (the interesting case: they survive or die per literal, not
// uniformly).
func appendRow(i int) table.Row {
	return table.Row{
		table.Float(float64(i % 5)),
		table.Float(float64(i % 7)),
		table.Int(int64(i % 2)),
	}
}

func newAppendSpace(rows int) *Space {
	return NewSpace(appendUniversal(rows), "target", SpaceConfig{MaxLiteralsPerAttr: 3})
}

func TestAppendVersionHistory(t *testing.T) {
	sp := newAppendSpace(20)
	if sp.Version() != 0 {
		t.Fatalf("cold version = %d, want 0", sp.Version())
	}
	if got := sp.RowsAtVersion(0); got != 20 {
		t.Fatalf("RowsAtVersion(0) = %d, want 20", got)
	}
	sizes := []int{1, 3, 2}
	next := 20
	for bi, n := range sizes {
		var batch []table.Row
		for i := 0; i < n; i++ {
			batch = append(batch, appendRow(next+i))
		}
		next += n
		v, err := sp.Append(batch)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(bi+1) {
			t.Fatalf("batch %d: version = %d, want %d", bi, v, bi+1)
		}
	}
	// The version→row-count history replays exactly.
	wantRows := []int{20, 21, 24, 26}
	for v, want := range wantRows {
		if got := sp.RowsAtVersion(uint64(v)); got != want {
			t.Errorf("RowsAtVersion(%d) = %d, want %d", v, got, want)
		}
	}
	// Future versions clamp to the current row count.
	if got := sp.RowsAtVersion(99); got != 26 {
		t.Errorf("RowsAtVersion(future) = %d, want 26", got)
	}
}

func TestAppendRejectsBadBatches(t *testing.T) {
	sp := newAppendSpace(12)
	if _, err := sp.Append(nil); err == nil {
		t.Error("empty batch must be rejected")
	}
	short := table.Row{table.Float(1)}
	if _, err := sp.Append([]table.Row{short}); err == nil {
		t.Error("arity mismatch must be rejected")
	}
	if sp.Version() != 0 || len(sp.Universal.Rows) != 12 {
		t.Error("rejected append mutated the space")
	}
}

// The row index after Append answers row selection
// bit-identically to a cold index built over the concatenated table
// through Rebuild — for every state, across random batch sequences,
// whether the index existed before the append or not.
func TestAppendRowIndexMatchesRebuild(t *testing.T) {
	for _, preBuild := range []bool{true, false} {
		name := "index-built-before-append"
		if !preBuild {
			name = "index-built-after-append"
		}
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				sp := newAppendSpace(20)
				if preBuild {
					// Force the index (and its word layout) to exist before
					// any row arrives, so Append must drop the stale one.
					v, _ := sp.RowsFor(sp.FullBitmap())
					sp.ReleaseRows(v)
				}
				next := 20
				var all []table.Row
				for b := 0; b < 1+rng.Intn(4); b++ {
					var batch []table.Row
					for i := 0; i < 1+rng.Intn(70); i++ {
						batch = append(batch, appendRow(next))
						next++
					}
					all = append(all, batch...)
					if _, err := sp.Append(batch); err != nil {
						t.Fatal(err)
					}
				}
				u2, err := table.Concat("D_U", appendUniversal(20), all)
				if err != nil {
					t.Fatal(err)
				}
				cold := sp.Rebuild(u2, nil)
				for trial := 0; trial < 40; trial++ {
					bits := sp.FullBitmap()
					for i := range sp.Entries {
						if rng.Intn(3) == 0 {
							bits.Clear(i)
						}
					}
					got, ok1 := sp.RowsFor(bits)
					want, ok2 := cold.RowsFor(bits)
					if !ok1 || !ok2 {
						t.Fatal("RowsFor declined a UDF-free space")
					}
					if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) ||
						fmt.Sprint(got.Masked) != fmt.Sprint(want.Masked) {
						t.Fatalf("seed %d state %s: incremental rows %v vs cold %v",
							seed, bits, got.Rows, want.Rows)
					}
					sp.ReleaseRows(got)
					cold.ReleaseRows(want)
				}
			}
		})
	}
}

// SelectionUnchanged agrees with the ground truth computed from the
// row sets themselves: a state's selection is unchanged exactly when
// no appended row survives its cleared literals.
func TestSelectionUnchangedMatchesRowSets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sp := newAppendSpace(30)
	from := 30
	var batch []table.Row
	for i := 0; i < 9; i++ {
		batch = append(batch, appendRow(from+i))
	}
	if _, err := sp.Append(batch); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 120; trial++ {
		bits := sp.FullBitmap()
		for i := range sp.Entries {
			if rng.Intn(3) == 0 {
				bits.Clear(i)
			}
		}
		v, ok := sp.RowsFor(bits)
		if !ok {
			t.Fatal("RowsFor declined")
		}
		truth := true
		for _, r := range v.Rows {
			if r >= from {
				truth = false
				break
			}
		}
		sp.ReleaseRows(v)
		if got := sp.SelectionUnchanged(bits.Floats(), from); got != truth {
			t.Fatalf("state %s: SelectionUnchanged = %v, row sets say %v", bits, got, truth)
		}
	}
	// A feature vector of the wrong width is conservatively "changed".
	if sp.SelectionUnchanged([]float64{1, 0}, from) {
		t.Error("wrong-width feature vector must report changed")
	}
	// fromRow at or past the row count means no appended rows at all.
	if !sp.SelectionUnchanged(sp.FullBitmap().Floats(), len(sp.Universal.Rows)) {
		t.Error("append of nothing must leave every selection unchanged")
	}
}

func putTest(ts *TestSet, key StateKey, feats []float64) *Test {
	return ts.Put(&Test{Key: key, Perf: skyline.Vector{1}, Features: feats})
}

func TestTestSetAdvanceTo(t *testing.T) {
	ts := NewTestSet()
	kept := putTest(ts, StateKey(1), []float64{1, 1})
	dropped := putTest(ts, StateKey(2), []float64{1, 0})
	if kept.Version != 0 || dropped.Version != 0 {
		t.Fatalf("cold puts stamped versions %d/%d, want 0", kept.Version, dropped.Version)
	}
	inv := ts.AdvanceTo(1, func(tt *Test) bool { return tt.Features[1] == 1 })
	if inv != 1 {
		t.Fatalf("invalidated = %d, want 1", inv)
	}
	if ts.Version() != 1 {
		t.Fatalf("version = %d, want 1", ts.Version())
	}
	if _, ok := ts.Get(StateKey(2)); ok {
		t.Error("invalidated test still answers Get")
	}
	got, ok := ts.Get(StateKey(1))
	if !ok || got.Version != 1 {
		t.Fatalf("surviving test = %+v ok=%v, want version re-stamped to 1", got, ok)
	}
	// The snapshot drops invalidated tests too.
	for _, tt := range ts.All() {
		if tt.Key == StateKey(2) {
			t.Error("invalidated test still in the memo snapshot")
		}
	}
	// New valuations are stamped with the advanced version.
	fresh, computed, err := ts.GetOrCompute(context.Background(), StateKey(3), func() (*Test, error) {
		return &Test{Key: StateKey(3), Perf: skyline.Vector{2}}, nil
	})
	if err != nil || !computed || fresh.Version != 1 {
		t.Fatalf("fresh valuation = %+v computed=%v err=%v, want version 1", fresh, computed, err)
	}
}

func TestAdvanceToRejectsRegress(t *testing.T) {
	ts := NewTestSet()
	ts.AdvanceTo(3, func(*Test) bool { return true })
	defer func() {
		if recover() == nil {
			t.Error("AdvanceTo to an older version must panic")
		}
	}()
	ts.AdvanceTo(2, func(*Test) bool { return true })
}

// Config.Append wires the pieces: the space advances, and the memo
// drops exactly the tests whose selected row set changed.
func TestConfigAppendInvalidatesPrecisely(t *testing.T) {
	sp := newAppendSpace(25)
	cfg := &Config{Space: sp, Tests: NewTestSet()}
	rng := rand.New(rand.NewSource(3))

	// Memoize a population of states with their true feature vectors.
	type rec struct {
		key  StateKey
		bits Bitmap
	}
	var states []rec
	for trial := 0; trial < 60; trial++ {
		bits := sp.FullBitmap()
		for i := range sp.Entries {
			if rng.Intn(3) == 0 {
				bits.Clear(i)
			}
		}
		if _, ok := cfg.Tests.Get(bits.Key()); ok {
			continue
		}
		putTest(cfg.Tests, bits.Key(), bits.Floats())
		states = append(states, rec{key: bits.Key(), bits: bits})
	}

	before := map[StateKey][]int{}
	for _, st := range states {
		v, _ := sp.RowsFor(st.bits)
		before[st.key] = append([]int(nil), v.Rows...)
		sp.ReleaseRows(v)
	}

	// All batch rows share the value point a=4, which is one of the
	// derived literal values: states clearing that literal remove every
	// batch row — their valuations must survive — while every other
	// state gains rows and must be dropped.
	var batch []table.Row
	for i := 0; i < 6; i++ {
		batch = append(batch, appendRow(4))
	}
	version, invalidated, err := cfg.Append(batch)
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 || cfg.Tests.Version() != 1 {
		t.Fatalf("version = %d / memo %d, want 1", version, cfg.Tests.Version())
	}

	wantInvalid := 0
	for _, st := range states {
		v, _ := sp.RowsFor(st.bits)
		changed := fmt.Sprint(v.Rows) != fmt.Sprint(before[st.key])
		sp.ReleaseRows(v)
		_, alive := cfg.Tests.Get(st.key)
		if changed {
			wantInvalid++
			if alive {
				t.Errorf("state %s: rows changed but valuation survived", st.bits)
			}
		} else if !alive {
			t.Errorf("state %s: rows unchanged but valuation dropped", st.bits)
		}
	}
	if invalidated != wantInvalid {
		t.Errorf("invalidated = %d, want %d", invalidated, wantInvalid)
	}
	if wantInvalid == 0 || wantInvalid == len(states) {
		t.Fatalf("degenerate batch: %d of %d states invalidated — the test needs both outcomes",
			wantInvalid, len(states))
	}
}
