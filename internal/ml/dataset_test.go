package ml

import (
	"math"
	"testing"

	"repro/internal/table"
)

func toyTable() *table.Table {
	tb := table.New("toy", table.Schema{
		{Name: "num", Kind: table.KindFloat},
		{Name: "cat", Kind: table.KindString},
		{Name: "y", Kind: table.KindFloat},
	})
	tb.MustAppend(table.Row{table.Float(1), table.Str("a"), table.Float(10)})
	tb.MustAppend(table.Row{table.Float(3), table.Str("b"), table.Float(20)})
	tb.MustAppend(table.Row{table.Null, table.Str("a"), table.Float(30)})
	tb.MustAppend(table.Row{table.Float(5), table.Str("c"), table.Null})
	return tb
}

func TestFromTableShape(t *testing.T) {
	ds := FromTable(toyTable(), "y")
	if ds.NumFeatures() != 2 {
		t.Fatalf("features = %d, want 2", ds.NumFeatures())
	}
	// Row with null target dropped.
	if ds.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", ds.NumRows())
	}
}

func TestFromTableImputesNulls(t *testing.T) {
	ds := FromTable(toyTable(), "y")
	// Null num cell imputed with column mean (1+3+5)/3 = 3.
	if ds.X[2][0] != 3 {
		t.Errorf("imputed value = %v, want 3", ds.X[2][0])
	}
}

func TestFromTableOrdinalEncoding(t *testing.T) {
	ds := FromTable(toyTable(), "y")
	// adom(cat) = [a b c]: a->0, b->1.
	if ds.X[0][1] != 0 || ds.X[1][1] != 1 {
		t.Errorf("categorical encoding = %v %v", ds.X[0][1], ds.X[1][1])
	}
}

func TestFromTableStringTarget(t *testing.T) {
	tb := table.New("t", table.Schema{
		{Name: "x", Kind: table.KindFloat},
		{Name: "label", Kind: table.KindString},
	})
	tb.MustAppend(table.Row{table.Float(1), table.Str("no")})
	tb.MustAppend(table.Row{table.Float(2), table.Str("yes")})
	ds := FromTable(tb, "label")
	// adom order: no=0, yes=1... sorted lexicographically: no < yes.
	if ds.Y[0] != 0 || ds.Y[1] != 1 {
		t.Errorf("string target encoding = %v", ds.Y)
	}
}

func TestSplitDeterministicAndDisjoint(t *testing.T) {
	ds := &Dataset{Features: []string{"x"}}
	for i := 0; i < 100; i++ {
		ds.X = append(ds.X, []float64{float64(i)})
		ds.Y = append(ds.Y, float64(i))
	}
	tr1, te1 := ds.Split(0.3, 42)
	tr2, te2 := ds.Split(0.3, 42)
	if tr1.NumRows() != tr2.NumRows() || te1.NumRows() != te2.NumRows() {
		t.Fatal("split must be deterministic")
	}
	if tr1.NumRows()+te1.NumRows() != 100 {
		t.Fatal("split must partition")
	}
	if te1.NumRows() != 30 {
		t.Errorf("test rows = %d, want 30", te1.NumRows())
	}
	seen := map[float64]bool{}
	for _, y := range tr1.Y {
		seen[y] = true
	}
	for _, y := range te1.Y {
		if seen[y] {
			t.Fatal("train/test overlap")
		}
	}
}

func TestSplitTinyDataset(t *testing.T) {
	ds := &Dataset{X: [][]float64{{1}, {2}}, Y: []float64{1, 2}}
	_, te := ds.Split(0.1, 1)
	if te.NumRows() != 1 {
		t.Errorf("tiny split should hold out at least one row, got %d", te.NumRows())
	}
}

// A *Dataset's width is its rows' width, whether or not its features
// are named: every learner and score gives the same bits on X with and
// without Features.
func TestDatasetWidthWithoutFeatures(t *testing.T) {
	Xc, yc := xorData(120, 21)
	Xr, yr := linearData(120, 22)
	names := []string{"a", "b"}
	type fitter func(d *Dataset) []float64
	// predictAll fits through fit and predicts every row of X.
	predictAll := func(X [][]float64, fit func(*Dataset) func([]float64) float64) fitter {
		return func(d *Dataset) []float64 {
			pred := fit(d)
			out := make([]float64, len(X))
			for i, x := range X {
				out[i] = pred(x)
			}
			return out
		}
	}
	cases := []struct {
		name string
		X    [][]float64
		y    []float64
		run  fitter
	}{
		{"tree", Xr, yr, predictAll(Xr, func(d *Dataset) func([]float64) float64 {
			m := &TreeRegressor{Config: TreeConfig{MaxDepth: 4}}
			m.FitData(d)
			return m.Predict
		})},
		{"treeclf", Xc, yc, predictAll(Xc, func(d *Dataset) func([]float64) float64 {
			m := &TreeClassifier{Config: TreeConfig{MaxDepth: 4}}
			m.FitData(d)
			return func(x []float64) float64 { return m.PredictProba(x)[1] }
		})},
		{"gbm", Xr, yr, predictAll(Xr, func(d *Dataset) func([]float64) float64 {
			m := &GBMRegressor{Config: GBMConfig{NumTrees: 8, Seed: 1}}
			m.FitData(d)
			return m.Predict
		})},
		{"gbmclf", Xc, yc, predictAll(Xc, func(d *Dataset) func([]float64) float64 {
			m := &GBMClassifier{Config: GBMConfig{NumTrees: 8, Seed: 1}}
			m.FitData(d)
			return m.PredictProba
		})},
		{"forest", Xc, yc, predictAll(Xc, func(d *Dataset) func([]float64) float64 {
			m := &ForestClassifier{Config: ForestConfig{NumTrees: 4, Seed: 2}}
			m.FitData(d)
			return func(x []float64) float64 { return m.PredictProba(x)[1] }
		})},
		{"forestreg", Xr, yr, predictAll(Xr, func(d *Dataset) func([]float64) float64 {
			m := &ForestRegressor{Config: ForestConfig{NumTrees: 4, Seed: 2}}
			m.FitData(d)
			return m.Predict
		})},
		{"histgbm", Xc, yc, predictAll(Xc, func(d *Dataset) func([]float64) float64 {
			m := &HistGBMClassifier{Config: HistGBMConfig{GBM: GBMConfig{NumTrees: 8, Seed: 1}, NumBins: 8}}
			m.FitData(d)
			return m.PredictProba
		})},
		{"linear", Xr, yr, predictAll(Xr, func(d *Dataset) func([]float64) float64 {
			m := &LinearRegression{}
			m.FitData(d)
			return m.Predict
		})},
		{"logistic", Xc, yc, predictAll(Xc, func(d *Dataset) func([]float64) float64 {
			m := &LogisticRegression{Iterations: 30}
			m.FitData(d)
			return m.PredictProba
		})},
		{"fisher", Xc, yc, func(d *Dataset) []float64 { return FisherScoreData(d, d.Y) }},
		{"mi", Xr, yr, func(d *Dataset) []float64 { return MutualInformationData(d, d.Y, 6) }},
	}
	for _, tc := range cases {
		named := &Dataset{X: tc.X, Y: tc.y, Features: names}
		bare := &Dataset{X: tc.X, Y: tc.y}
		if named.NumFeatures() != 2 || bare.NumFeatures() != 2 {
			t.Fatalf("NumFeatures = %d named, %d bare, want 2", named.NumFeatures(), bare.NumFeatures())
		}
		want, got := tc.run(named), tc.run(bare)
		if len(got) != len(want) {
			t.Fatalf("%s: %d outputs without Features, %d with", tc.name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: output %d = %v without Features, %v with", tc.name, i, got[i], want[i])
			}
		}
	}
	if n := (&Dataset{Features: names}).NumFeatures(); n != 2 {
		t.Errorf("row-less NumFeatures = %d, want the 2 named features", n)
	}
}
