package ml

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/table"
)

// matrixUniversal builds a universal-style table exercising every
// encoding path: a skip column, a string column, int and float columns,
// a float column with nulls, and null targets.
func matrixUniversal(nullTarget bool) *table.Table {
	u := table.New("D_U", table.Schema{
		{Name: "id", Kind: table.KindInt},
		{Name: "season", Kind: table.KindString},
		{Name: "x", Kind: table.KindFloat},
		{Name: "k", Kind: table.KindInt},
		{Name: "sparse", Kind: table.KindFloat},
		{Name: "target", Kind: table.KindFloat},
	})
	seasons := []string{"spring", "summer", "fall", "winter"}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		sparse := table.Value(table.Float(rng.Float64() * 10))
		if i%7 == 0 {
			sparse = table.Null
		}
		tgt := table.Value(table.Float(float64(i%5) + rng.Float64()))
		if nullTarget && i%11 == 0 {
			tgt = table.Null
		}
		u.MustAppend(table.Row{
			table.Int(int64(i)),
			table.Str(seasons[i%4]),
			table.Float(rng.Float64() * 3),
			table.Int(int64(i % 6)),
			sparse,
			tgt,
		})
	}
	return u
}

// childOf simulates Materialize's output for a row subset with masked
// columns dropped.
func childOf(u *table.Table, rows []int, masked []string) *table.Table {
	t := table.New("D_s", u.Schema)
	for _, r := range rows {
		t.Rows = append(t.Rows, u.Rows[r].Clone())
	}
	for _, m := range masked {
		t = t.DropColumn(m)
	}
	return t
}

// sampleStates yields deterministic row subsets and mask combinations.
func sampleStates(nRows int) []struct {
	rows   []int
	masked []string
} {
	rng := rand.New(rand.NewSource(11))
	var out []struct {
		rows   []int
		masked []string
	}
	maskChoices := [][]string{nil, {"sparse"}, {"season"}, {"season", "k"}}
	for trial := 0; trial < 12; trial++ {
		var rows []int
		keep := 0.3 + 0.7*rng.Float64()
		for r := 0; r < nRows; r++ {
			if rng.Float64() < keep {
				rows = append(rows, r)
			}
		}
		out = append(out, struct {
			rows   []int
			masked []string
		}{rows, maskChoices[trial%len(maskChoices)]})
	}
	// Full state and tiny state.
	full := make([]int, nRows)
	for i := range full {
		full[i] = i
	}
	out = append(out, struct {
		rows   []int
		masked []string
	}{full, nil})
	out = append(out, struct {
		rows   []int
		masked []string
	}{[]int{3, 4, 9}, []string{"x"}})
	return out
}

// TestViewMatchesEncode is the core zero-materialization property: a
// matrix view of (rows, masked) must reproduce the encoded child
// dataset cell for cell.
func TestViewMatchesEncode(t *testing.T) {
	for _, nullTarget := range []bool{false, true} {
		u := matrixUniversal(nullTarget)
		enc := NewTableEncoderSkip(u, "target", "id")
		mx := enc.Matrix()
		for si, st := range sampleStates(u.NumRows()) {
			ds := gathered(enc.Encode(childOf(u, st.rows, st.masked)))
			v := mx.View(st.rows, st.masked)
			if ds.NumRows() != v.NumRows() || ds.NumFeatures() != v.NumFeatures() {
				t.Fatalf("state %d (nullTarget=%v): shape (%d,%d) vs view (%d,%d)",
					si, nullTarget, ds.NumRows(), ds.NumFeatures(), v.NumRows(), v.NumFeatures())
			}
			buf := make([]float64, v.NumFeatures())
			for i := 0; i < ds.NumRows(); i++ {
				if ds.Y[i] != v.Label(i) {
					t.Fatalf("state %d row %d: y %v vs %v", si, i, ds.Y[i], v.Label(i))
				}
				row := v.Row(i, buf)
				for f := range row {
					if ds.X[i][f] != row[f] {
						t.Fatalf("state %d row %d feat %d (%s): %v vs %v",
							si, i, f, ds.Features[f], ds.X[i][f], row[f])
					}
				}
			}
			for f := 0; f < ds.NumFeatures(); f++ {
				if ds.Features[f] != v.FeatureNames()[f] {
					t.Fatalf("state %d: feature order %v vs %v", si, ds.Features, v.FeatureNames())
				}
			}
		}
	}
}

// TestViewSplitMatchesDatasetSplit: the deterministic shuffle must
// partition view rows exactly like the rows of the FromTable dataset.
func TestViewSplitMatchesDatasetSplit(t *testing.T) {
	u := matrixUniversal(true)
	enc := NewTableEncoderSkip(u, "target", "id")
	mx := enc.Matrix()
	for si, st := range sampleStates(u.NumRows()) {
		ds := FromTable(childOf(u, st.rows, st.masked).DropColumn("id"), "target")
		v := mx.View(st.rows, st.masked)
		dtr, dte := ds.Split(0.3, 42)
		vtr, vte := v.SplitData(0.3, 42)
		assertSameData(t, si, "train", dtr, vtr)
		assertSameData(t, si, "test", dte, vte)
	}
}

func assertSameData(t *testing.T, si int, part string, d *Dataset, v Data) {
	t.Helper()
	if len(d.X) != v.NumRows() {
		t.Fatalf("state %d %s: %d vs %d rows", si, part, len(d.X), v.NumRows())
	}
	buf := make([]float64, v.NumFeatures())
	for i := range d.X {
		if d.Y[i] != v.Label(i) {
			t.Fatalf("state %d %s row %d: y %v vs %v", si, part, i, d.Y[i], v.Label(i))
		}
		row := v.Row(i, buf)
		for f := range row {
			if d.X[i][f] != row[f] {
				t.Fatalf("state %d %s row %d feat %d: %v vs %v", si, part, i, f, d.X[i][f], row[f])
			}
		}
	}
}

// TestFitParityAcrossRoutes: every learner family must produce
// bit-identical predictions whether fitted on the FromTable dataset or on
// the matrix view of the same state — the frame inputs are equal and
// the (value, position) presort is unique, so the grown models must be
// too.
func TestFitParityAcrossRoutes(t *testing.T) {
	u := matrixUniversal(true)
	enc := NewTableEncoderSkip(u, "target", "id")
	mx := enc.Matrix()
	states := sampleStates(u.NumRows())

	type fitter struct {
		name string
		run  func(train Data) func([]float64) float64
	}
	fitters := []fitter{
		{"tree", func(tr Data) func([]float64) float64 {
			m := &TreeRegressor{Config: TreeConfig{MaxDepth: 5, Seed: 3}}
			m.FitData(tr)
			return m.Predict
		}},
		{"treeclf", func(tr Data) func([]float64) float64 {
			m := &TreeClassifier{Config: TreeConfig{MaxDepth: 5, Seed: 3}, NumClass: 5}
			m.FitData(tr)
			return m.Predict
		}},
		{"gbm", func(tr Data) func([]float64) float64 {
			m := &GBMRegressor{Config: GBMConfig{NumTrees: 12, MaxDepth: 3, Seed: 1}}
			m.FitData(tr)
			return m.Predict
		}},
		{"forest", func(tr Data) func([]float64) float64 {
			m := &ForestClassifier{Config: ForestConfig{NumTrees: 8, MaxDepth: 5, Seed: 2}, NumClass: 5}
			m.FitData(tr)
			return func(x []float64) float64 {
				p := m.PredictProba(x)
				out := 0.0
				for c, pc := range p {
					out += float64(c+1) * pc
				}
				return out
			}
		}},
		{"histgbm", func(tr Data) func([]float64) float64 {
			m := &HistGBMClassifier{Config: HistGBMConfig{GBM: GBMConfig{NumTrees: 10, MaxDepth: 3, Seed: 1}, NumBins: 8}}
			m.FitData(tr)
			return m.PredictProba
		}},
		{"linear", func(tr Data) func([]float64) float64 {
			m := &LinearRegression{}
			m.FitData(tr)
			return m.Predict
		}},
		{"logistic", func(tr Data) func([]float64) float64 {
			m := &LogisticRegression{Iterations: 40}
			m.FitData(tr)
			return m.PredictProba
		}},
	}

	for _, ft := range fitters {
		t.Run(ft.name, func(t *testing.T) {
			for si, st := range states[:6] {
				ds := FromTable(childOf(u, st.rows, st.masked).DropColumn("id"), "target")
				v := mx.View(st.rows, st.masked)
				if ds.NumRows() == 0 {
					continue
				}
				dtr, dte := ds.SplitData(0.3, 42)
				vtr, vte := v.SplitData(0.3, 42)
				pd := ft.run(dtr)
				pv := ft.run(vtr)
				buf := make([]float64, v.NumFeatures())
				buf2 := make([]float64, v.NumFeatures())
				for i := 0; i < dte.NumRows(); i++ {
					a := pd(dte.Row(i, buf))
					b := pv(vte.Row(i, buf2))
					if a != b {
						t.Fatalf("state %d test row %d: dataset-fit %v != view-fit %v", si, i, a, b)
					}
				}
			}
		})
	}
}

// TestNaNFeatureFitParity: a feature holding NaN cells grows the same
// trees from the row-major dataset as from the matrix view of the same
// table. The view ranks NaN after every number; the dataset's presort
// must order it the same way, and split search must never place a
// threshold beside it.
func TestNaNFeatureFitParity(t *testing.T) {
	u := table.New("D_U", table.Schema{
		{Name: "a", Kind: table.KindFloat},
		{Name: "b", Kind: table.KindFloat},
		{Name: "target", Kind: table.KindFloat},
	})
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 40; i++ {
		a := rng.Float64()
		y := math.Floor(4*a) + rng.Float64()/10
		if i == 5 || i == 23 {
			a, y = math.NaN(), 3
		}
		u.MustAppend(table.Row{table.Float(a), table.Float(float64(rng.Intn(30))), table.Float(y)})
	}
	ds := FromTable(u, "target")
	rows := make([]int, u.NumRows())
	for i := range rows {
		rows[i] = i
	}
	v := NewTableEncoder(u, "target").Matrix().View(rows, nil)
	fits := map[string]func(Data) func([]float64) float64{
		"tree": func(d Data) func([]float64) float64 {
			m := &TreeRegressor{Config: TreeConfig{MaxDepth: 4, MinLeaf: 1}}
			m.FitData(d)
			return m.Predict
		},
		"gbm": func(d Data) func([]float64) float64 {
			m := &GBMRegressor{Config: GBMConfig{NumTrees: 6, MaxDepth: 3, Seed: 1}}
			m.FitData(d)
			return m.Predict
		},
		"treeclf": func(d Data) func([]float64) float64 {
			m := &TreeClassifier{Config: TreeConfig{MaxDepth: 4, MinLeaf: 1}, NumClass: 4}
			m.FitData(d)
			return func(x []float64) float64 { return m.PredictProba(x)[3] }
		},
	}
	for name, fit := range fits {
		pd, pv := fit(ds), fit(v)
		for i, x := range ds.X {
			if a, b := pd(x), pv(x); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s row %d: dataset fit %v, view fit %v", name, i, a, b)
			}
		}
	}
}

// TestEncoderSkipMatchesDropColumn: Encode with a skip set must equal
// FromTable on the child with the column dropped — the clone the skip
// option eliminates.
func TestEncoderSkipMatchesDropColumn(t *testing.T) {
	u := matrixUniversal(true)
	enc := NewTableEncoderSkip(u, "target", "id")
	for si, st := range sampleStates(u.NumRows()) {
		child := childOf(u, st.rows, st.masked)
		got := gathered(enc.Encode(child))
		want := FromTable(child.DropColumn("id"), "target")
		if len(got.X) != len(want.X) || len(got.Features) != len(want.Features) {
			t.Fatalf("state %d: shape mismatch", si)
		}
		for i := range want.X {
			if got.Y[i] != want.Y[i] {
				t.Fatalf("state %d row %d: y mismatch", si, i)
			}
			for f := range want.X[i] {
				if got.X[i][f] != want.X[i][f] {
					t.Fatalf("state %d row %d feat %d: %v != %v", si, i, f, got.X[i][f], want.X[i][f])
				}
			}
		}
	}
}

// TestCountingOrderMatchesSort: the counting derivation from matrix
// ranks must equal the generic (value, position) sort on every
// no-null feature of every sampled view.
func TestCountingOrderMatchesSort(t *testing.T) {
	u := matrixUniversal(false)
	enc := NewTableEncoderSkip(u, "target", "id")
	mx := enc.Matrix()
	ws := &treeScratch{}
	for si, st := range sampleStates(u.NumRows()) {
		v := mx.View(st.rows, st.masked)
		if v.NumRows() == 0 {
			continue
		}
		fr := v.buildFrame(ws)
		for f := 0; f < fr.nf; f++ {
			want := make([]int32, fr.n)
			sortOrder(fr.cols[f], want)
			for i := range want {
				if fr.base[f][i] != want[i] {
					t.Fatalf("state %d feature %d pos %d: counting order %d != sorted %d",
						si, f, i, fr.base[f][i], want[i])
				}
			}
		}
	}
}

// TestBootstrapOrdersMatchSort: resampled frames must satisfy the same
// unique (value, position) order invariant as every other frame
// constructor, including across tied values drawn from different
// source rows. A leveled resample keeps no orders; its levels must
// order positions as the levels read off the counting-sort order of
// the same draw do, and carry the same values.
func TestBootstrapOrdersMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 80
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		// Heavy ties: small categorical-like domains.
		X[i] = []float64{float64(i % 3), float64(rng.Intn(5)), rng.Float64()}
		y[i] = rng.Float64()
	}
	ws := &treeScratch{}
	fr := frameFromRows(X, y, ws)
	bs := newBootstrapper(fr, ws)
	for trial := 0; trial < 6; trial++ {
		bfr := bs.resample(rng)
		for f := 0; f < bfr.nf; f++ {
			want := make([]int32, bfr.n)
			sortOrder(bfr.cols[f], want)
			for i := range want {
				if bfr.base[f][i] != want[i] {
					t.Fatalf("trial %d feature %d pos %d: bootstrap order %d != sorted %d",
						trial, f, i, bfr.base[f][i], want[i])
				}
			}
		}
	}

	// Few-level columns, ±0 among them: the base frame is leveled.
	negZero := math.Copysign(0, -1)
	for i := range X {
		z := 0.0
		if rng.Intn(2) == 0 {
			z = negZero
		}
		X[i] = []float64{float64(i % 3), float64(rng.Intn(16)), []float64{z, 1, -2}[rng.Intn(3)]}
	}
	lfr, ofr := frameFromRows(X, y, ws), frameFromRows(X, y, ws)
	lfr.readLevels()
	if !lfr.leveled || ofr.leveled {
		t.Fatalf("leveled %v and %v, want true and false", lfr.leveled, ofr.leveled)
	}
	lbs, obs := newBootstrapper(lfr, ws), newBootstrapper(ofr, ws)
	for trial := 0; trial < 6; trial++ {
		seed := rng.Int63()
		lb := lbs.resample(rand.New(rand.NewSource(seed)))
		ob := obs.resample(rand.New(rand.NewSource(seed)))
		if !lb.leveled || ob.leveled {
			t.Fatalf("trial %d: resamples leveled %v and %v, want true and false", trial, lb.leveled, ob.leveled)
		}
		// Read the ordered resample's levels into a frame of its own, so
		// its bootstrapper keeps an unleveled output.
		rfr := ws.getFrame(ob.nf, ob.n)
		rfr.y = ob.y
		for f := 0; f < ob.nf; f++ {
			copy(rfr.cols[f], ob.cols[f])
			copy(rfr.base[f], ob.base[f])
		}
		rfr.readLevels()
		if !rfr.leveled {
			t.Fatalf("trial %d: levels not read off the counting-sort order", trial)
		}
		for f := 0; f < lb.nf; f++ {
			got, want := lb.lv[f], rfr.lv[f]
			for p := 0; p < lb.n; p++ {
				if gv, wv := lb.lvals[f][got[p]], rfr.lvals[f][want[p]]; gv != wv || gv != ob.cols[f][p] {
					t.Fatalf("trial %d feature %d pos %d: level value %v, read off the order %v, column %v", trial, f, p, gv, wv, ob.cols[f][p])
				}
				for q := 0; q < lb.n; q++ {
					if (got[p] < got[q]) != (want[p] < want[q]) {
						t.Fatalf("trial %d feature %d: positions %d, %d ordered apart by the two level sets", trial, f, p, q)
					}
				}
			}
		}
		ws.putFrame(rfr)
	}
}

// TestStringTargetViewParity covers the string-target remap path.
func TestStringTargetViewParity(t *testing.T) {
	u := table.New("D_U", table.Schema{
		{Name: "a", Kind: table.KindFloat},
		{Name: "label", Kind: table.KindString},
	})
	labels := []string{"lo", "mid", "hi", "top"}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		u.MustAppend(table.Row{table.Float(rng.Float64()), table.Str(labels[i%4])})
	}
	enc := NewTableEncoder(u, "label")
	mx := enc.Matrix()
	rows := []int{0, 1, 2, 5, 6, 9, 13, 17, 21, 22, 30, 33, 38}
	ds := FromTable(childOf(u, rows, nil), "label")
	v := mx.View(rows, nil)
	if ds.NumRows() != v.NumRows() {
		t.Fatalf("rows %d vs %d", ds.NumRows(), v.NumRows())
	}
	for i := range ds.Y {
		if ds.Y[i] != v.Label(i) {
			t.Fatalf("row %d: label %v vs %v", i, ds.Y[i], v.Label(i))
		}
	}
}

// TestMatrixColumn: numeric columns expose their frozen cell floats
// and null masks; string, skipped, target, and unknown names are
// declined — the contract fst row-index construction relies on.
func TestMatrixColumn(t *testing.T) {
	u := matrixUniversal(false)
	enc := NewTableEncoderSkip(u, "target", "id")
	mx := enc.Matrix()

	for _, name := range []string{"x", "k", "sparse"} {
		vals, null, ok := mx.Column(name)
		if !ok {
			t.Fatalf("numeric column %q declined", name)
		}
		if len(vals) != u.NumRows() {
			t.Fatalf("column %q has %d values, want %d", name, len(vals), u.NumRows())
		}
		ci := u.Schema.Index(name)
		for ri, r := range u.Rows {
			cell := r[ci]
			if cell.IsNull() {
				if null == nil || !null[ri] {
					t.Fatalf("column %q row %d: null cell not masked", name, ri)
				}
				continue
			}
			if null != nil && null[ri] {
				t.Fatalf("column %q row %d: non-null cell masked", name, ri)
			}
			if vals[ri] != cell.AsFloat() {
				t.Fatalf("column %q row %d: %v != cell %v", name, ri, vals[ri], cell.AsFloat())
			}
		}
	}
	for _, name := range []string{"season", "id", "target", "missing"} {
		if _, _, ok := mx.Column(name); ok {
			t.Errorf("column %q must be declined", name)
		}
	}
	// The encoder forwards the same contract (lazily building the
	// matrix), making it a drop-in fst.ColumnSource.
	if vals, _, ok := enc.Column("x"); !ok || len(vals) != u.NumRows() {
		t.Error("encoder Column does not forward the matrix contract")
	}
}
