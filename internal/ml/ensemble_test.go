package ml

import (
	"math"
	"math/rand"
	"testing"
)

func TestForestClassifierBeatsChance(t *testing.T) {
	X, y := xorData(400, 7)
	f := &ForestClassifier{Config: ForestConfig{NumTrees: 10, MaxDepth: 5, Seed: 1}}
	f.FitData(dsOf(X, y))
	Xt, yt := xorData(200, 8)
	pred := make([]float64, len(yt))
	for i, x := range Xt {
		pred[i] = f.Predict(x)
	}
	if acc := Accuracy(yt, pred); acc < 0.8 {
		t.Errorf("forest test accuracy = %v, want >= 0.8", acc)
	}
}

func TestForestRegressor(t *testing.T) {
	X, y := linearData(300, 9)
	f := &ForestRegressor{Config: ForestConfig{NumTrees: 10, MaxDepth: 7, Seed: 1}}
	f.FitData(dsOf(X, y))
	Xt, yt := linearData(150, 10)
	pred := make([]float64, len(yt))
	for i, x := range Xt {
		pred[i] = f.Predict(x)
	}
	if r2 := R2(yt, pred); r2 < 0.6 {
		t.Errorf("forest test R2 = %v, want >= 0.6", r2)
	}
}

func TestForestDeterministic(t *testing.T) {
	X, y := xorData(150, 11)
	f1 := &ForestClassifier{Config: ForestConfig{NumTrees: 5, Seed: 3}}
	f2 := &ForestClassifier{Config: ForestConfig{NumTrees: 5, Seed: 3}}
	f1.FitData(dsOf(X, y))
	f2.FitData(dsOf(X, y))
	for _, x := range X[:20] {
		if f1.Predict(x) != f2.Predict(x) {
			t.Fatal("same-seed forests must agree")
		}
	}
}

func TestGBMRegressorBeatsSingleTree(t *testing.T) {
	X, y := linearData(300, 12)
	Xt, yt := linearData(150, 13)

	tree := &TreeRegressor{Config: TreeConfig{MaxDepth: 2}}
	tree.FitData(dsOf(X, y))
	gbm := &GBMRegressor{Config: GBMConfig{NumTrees: 60, MaxDepth: 2, Seed: 1}}
	gbm.FitData(dsOf(X, y))

	msTree, msGBM := 0.0, 0.0
	predT := make([]float64, len(yt))
	predG := make([]float64, len(yt))
	for i, x := range Xt {
		predT[i] = tree.Predict(x)
		predG[i] = gbm.Predict(x)
	}
	msTree = MSE(yt, predT)
	msGBM = MSE(yt, predG)
	if msGBM >= msTree {
		t.Errorf("boosting MSE %v should beat single shallow tree %v", msGBM, msTree)
	}
}

func TestGBMClassifier(t *testing.T) {
	X, y := xorData(400, 14)
	g := &GBMClassifier{Config: GBMConfig{NumTrees: 50, MaxDepth: 3, Seed: 1}}
	g.FitData(dsOf(X, y))
	Xt, yt := xorData(200, 15)
	pred := make([]float64, len(yt))
	for i, x := range Xt {
		p := g.PredictProba(x)
		if p < 0 || p > 1 {
			t.Fatalf("probability out of range: %v", p)
		}
		pred[i] = g.Predict(x)
	}
	if acc := Accuracy(yt, pred); acc < 0.85 {
		t.Errorf("GBM classifier accuracy = %v, want >= 0.85", acc)
	}
}

func TestMultiOutputGBM(t *testing.T) {
	X, _ := linearData(200, 16)
	Y := make([][]float64, len(X))
	for i, x := range X {
		Y[i] = []float64{x[0] + x[1], x[0] - x[1], 2 * x[0]}
	}
	m := &MultiOutputGBM{Config: GBMConfig{NumTrees: 40, MaxDepth: 3, Seed: 1}}
	fitCols(m, len(X), columns(X), columns(Y))
	if m.NumOutputs() != 3 {
		t.Fatalf("outputs = %d, want 3", m.NumOutputs())
	}
	var errSum float64
	for i, x := range X {
		p := m.Predict(x)
		for j := range p {
			errSum += math.Abs(p[j] - Y[i][j])
		}
	}
	avgErr := errSum / float64(len(X)*3)
	if avgErr > 0.15 {
		t.Errorf("MO-GBM avg abs error = %v, want <= 0.15", avgErr)
	}
}

// Outputs over zero observations fit nothing.
func TestMultiOutputGBMEmpty(t *testing.T) {
	m := &MultiOutputGBM{}
	if tasks := m.FitColsTasks(0, [][]float64{{}}, [][]float64{{}, {}}); len(tasks) != 0 {
		t.Errorf("empty fit made %d tasks", len(tasks))
	}
	if m.NumOutputs() != 0 {
		t.Error("empty fit should produce no outputs")
	}
}

// fitCols runs every FitColsTasks task inline, in output order.
func fitCols(m *MultiOutputGBM, n int, cols, targets [][]float64) {
	for _, fit := range m.FitColsTasks(n, cols, targets) {
		fit()
	}
}

// columns transposes row-major vectors into one slice per dimension.
func columns(rows [][]float64) [][]float64 {
	cols := make([][]float64, len(rows[0]))
	for f := range cols {
		cols[f] = make([]float64, len(rows))
		for i, r := range rows {
			cols[f][i] = r[f]
		}
	}
	return cols
}

// rowMajorMOGBM is the reference MO-GBM: one GBMRegressor.FitData per
// output over the row-major *Dataset route, output j seeded as
// FitColsTasks seeds it.
func rowMajorMOGBM(cfg GBMConfig, X, Y [][]float64) *MultiOutputGBM {
	m := &MultiOutputGBM{Config: cfg}
	for j, y := range columns(Y) {
		g := &GBMRegressor{Config: cfg}
		g.Config.Seed = cfg.Seed + int64(j)*7919
		g.FitData(dsOf(X, y))
		m.models = append(m.models, g)
	}
	return m
}

func TestHistGBMClassifier(t *testing.T) {
	X, y := xorData(400, 17)
	h := &HistGBMClassifier{Config: HistGBMConfig{
		GBM:     GBMConfig{NumTrees: 40, MaxDepth: 3, Seed: 1},
		NumBins: 16,
	}}
	h.FitData(dsOf(X, y))
	Xt, yt := xorData(200, 18)
	pred := make([]float64, len(yt))
	for i, x := range Xt {
		pred[i] = h.Predict(x)
	}
	if acc := Accuracy(yt, pred); acc < 0.8 {
		t.Errorf("hist-GBM accuracy = %v, want >= 0.8", acc)
	}
}

func TestBinRowMonotone(t *testing.T) {
	bins := [][]float64{{1, 2, 3}}
	bin := func(v float64) float64 { return binRowInto(make([]float64, 1), []float64{v}, bins)[0] }
	lo, mid, hi := bin(0.5), bin(2.5), bin(9)
	if !(lo < mid && mid < hi) {
		t.Errorf("binning not monotone: %v %v %v", lo, mid, hi)
	}
}

// FitColsTasks on column-major data must grow the exact trees one
// GBMRegressor.FitData per output grows on the row-major *Dataset
// equivalent. On real-valued columns frameFromCols and frameFromRows
// construct the same frame and everything downstream is shared code;
// on 0/1 columns FitColsTasks reads levels 0 and 1 straight off the
// columns while the *Dataset route reads them off the presorted orders,
// so the 0/1 cases pin that route to the reference, including its edge
// cases.
func TestMultiOutputGBMFitColsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// column returns a 0/1 column of n values with exactly zeros zeros.
	column := func(n, zeros int) []float64 {
		c := make([]float64, n)
		for _, p := range rng.Perm(n)[zeros:] {
			c[p] = 1
		}
		return c
	}
	// bitRows lays extra columns next to nf random 0/1 columns and
	// returns the rows.
	bitRows := func(n, nf int, extra ...[]float64) [][]float64 {
		X := make([][]float64, n)
		for i := range X {
			for f := 0; f < nf; f++ {
				X[i] = append(X[i], float64(rng.Intn(2)))
			}
			for _, c := range extra {
				X[i] = append(X[i], c[i])
			}
		}
		return X
	}
	noise := func() float64 { return 0.05 * rng.NormFloat64() }

	type parityCase struct {
		name    string
		X, Y    [][]float64
		minLeaf int
		binary  bool // every feature is 0/1, so FitColsTasks reads levels off the columns
	}
	var cases []parityCase

	X, _ := linearData(160, 12)
	Y := make([][]float64, len(X))
	for i, x := range X {
		Y[i] = []float64{x[0] + x[1], x[0] - x[1]}
	}
	cases = append(cases, parityCase{name: "real-valued", X: X, Y: Y})

	X = bitRows(160, 10)
	Y = make([][]float64, len(X))
	for i, x := range X {
		Y[i] = []float64{x[0] + 0.5*x[1] + noise(), x[2]*x[3] - x[4] + noise(), x[5] + x[6] + x[7]}
	}
	cases = append(cases, parityCase{name: "bits", X: X, Y: Y, binary: true})

	// Root zero counts at every acceptance edge for minLeaf 3, next to
	// all-zero and all-one columns; each target follows one edge column,
	// so the edge splits are the ones worth taking.
	const n, minLeaf = 60, 3
	below, at, top := column(n, minLeaf-1), column(n, minLeaf), column(n, n-minLeaf)
	X = bitRows(n, 4, column(n, n), column(n, 0), below, at, top)
	Y = make([][]float64, n)
	for i := range X {
		Y[i] = []float64{5*below[i] + noise(), 5*at[i] + noise(), 5*top[i] + noise(), X[i][0] + noise()}
	}
	cases = append(cases, parityCase{name: "edge-counts", X: X, Y: Y, minLeaf: minLeaf, binary: true})

	X = bitRows(80, 6)
	Y = make([][]float64, len(X))
	for i, x := range X {
		Y[i] = []float64{0.25, x[0] + noise()}
	}
	cases = append(cases, parityCase{name: "constant-target", X: X, Y: Y, binary: true})

	X = bitRows(2*minLeaf-1, 3)
	Y = make([][]float64, len(X))
	for i, x := range X {
		Y[i] = []float64{x[0], x[1] + x[2]}
	}
	cases = append(cases, parityCase{name: "below-two-leaves", X: X, Y: Y, minLeaf: minLeaf, binary: true})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := GBMConfig{NumTrees: 30, MaxDepth: 3, MinLeaf: tc.minLeaf, Seed: 5}
			ref := rowMajorMOGBM(cfg, tc.X, tc.Y)
			cols, tgts := columns(tc.X), columns(tc.Y)
			ws := getScratch()
			fr := frameFromCols(cols, tgts[0], ws)
			binary := fr.leveled
			ws.putFrame(fr)
			putScratch(ws)
			if binary != tc.binary {
				t.Fatalf("0/1 frame = %v, want %v", binary, tc.binary)
			}
			m := &MultiOutputGBM{Config: cfg}
			fitCols(m, len(tc.X), cols, tgts)

			if m.NumOutputs() != ref.NumOutputs() {
				t.Fatalf("outputs = %d, want %d", m.NumOutputs(), ref.NumOutputs())
			}
			for i, x := range tc.X {
				p, q := m.Predict(x), ref.Predict(x)
				for j := range p {
					if p[j] != q[j] {
						t.Fatalf("prediction %d[%d] = %v, want %v", i, j, p[j], q[j])
					}
				}
			}
			for j, g := range m.models {
				for k, tree := range g.trees {
					if !sameTree(tree.root, ref.models[j].trees[k].root) {
						t.Fatalf("output %d tree %d differs from the reference", j, k)
					}
				}
			}
		})
	}
}

// sameTree reports whether two trees have the same shape, splits, leaf
// values and sample counts, bit for bit.
func sameTree(a, b *treeNode) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.leaf == b.leaf && a.feature == b.feature && a.thresh == b.thresh &&
		a.value == b.value && a.nSamples == b.nSamples &&
		sameTree(a.left, b.left) && sameTree(a.right, b.right)
}

func TestMultiOutputGBMFitColsEmpty(t *testing.T) {
	m := &MultiOutputGBM{}
	fitCols(m, 0, nil, nil)
	if m.NumOutputs() != 0 {
		t.Error("empty columnar fit should produce no outputs")
	}
}

// TestPredictAllocFree: a forest's class vote, a HistGBM prediction
// and a logistic probability allocate nothing per row, and agree with
// the allocating paths.
func TestPredictAllocFree(t *testing.T) {
	X, y := xorData(200, 12)
	f := &ForestClassifier{Config: ForestConfig{NumTrees: 5, MaxDepth: 4, Seed: 1}}
	f.FitData(dsOf(X, y))
	h := &HistGBMClassifier{Config: HistGBMConfig{GBM: GBMConfig{NumTrees: 5, MaxDepth: 3, Seed: 1}, NumBins: 8}}
	h.FitData(dsOf(X, y))
	lg := &LogisticRegression{Iterations: 30}
	lg.FitData(dsOf(X, y))
	x := X[3]
	if n := testing.AllocsPerRun(50, func() { lg.Predict(x); lg.PredictProba(x) }); n != 0 {
		t.Errorf("LogisticRegression predictions allocate %v times per row", n)
	}
	if n := testing.AllocsPerRun(50, func() { f.Predict(x) }); n != 0 {
		t.Errorf("ForestClassifier.Predict allocates %v times per row", n)
	}
	if n := testing.AllocsPerRun(50, func() { h.Predict(x); h.PredictProba(x) }); n != 0 {
		t.Errorf("HistGBMClassifier predictions allocate %v times per row", n)
	}
	for _, x := range X {
		if got, want := f.Predict(x), float64(argmax(f.PredictProba(x))); got != want {
			t.Fatalf("forest Predict %v, argmax of PredictProba %v", got, want)
		}
		if got, want := h.PredictProba(x), h.inner.PredictProba(binRowInto(make([]float64, len(x)), x, h.bins)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("HistGBM PredictProba %v, on a heap-binned row %v", got, want)
		}
		if got, want := lg.PredictProba(x), sigmoid(dot(lg.Weights, standardizeRow(x, lg.mu, lg.sigma))+lg.Bias); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("logistic PredictProba %v, on a standardized copy %v", got, want)
		}
	}
}
