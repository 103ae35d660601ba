package ml

import (
	"math"
	"math/rand"
	"testing"
)

// xorData builds a dataset where y = x0 XOR x1 (thresholded at 0.5):
// unlearnable by a linear model, learnable by a depth-2+ tree.
func xorData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, b := rng.Float64(), rng.Float64()
		X[i] = []float64{a, b}
		if (a > 0.5) != (b > 0.5) {
			y[i] = 1
		}
	}
	return X, y
}

// dsOf wraps row-major examples as a *Dataset, the row-major training
// route every learner's FitData takes.
func dsOf(X [][]float64, y []float64) *Dataset { return &Dataset{X: X, Y: y} }

func linearData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, b := rng.Float64(), rng.Float64()
		X[i] = []float64{a, b}
		y[i] = 3*a - 2*b + 0.01*rng.NormFloat64()
	}
	return X, y
}

func TestTreeRegressorFitsLinear(t *testing.T) {
	X, y := linearData(300, 1)
	tr := &TreeRegressor{Config: TreeConfig{MaxDepth: 8}}
	tr.FitData(dsOf(X, y))
	pred := make([]float64, len(y))
	for i, x := range X {
		pred[i] = tr.Predict(x)
	}
	if r2 := R2(y, pred); r2 < 0.8 {
		t.Errorf("train R2 = %v, want >= 0.8", r2)
	}
}

func TestTreeClassifierLearnsXOR(t *testing.T) {
	X, y := xorData(400, 2)
	tc := &TreeClassifier{Config: TreeConfig{MaxDepth: 4}}
	tc.FitData(dsOf(X, y))
	pred := make([]float64, len(y))
	for i, x := range X {
		pred[i] = tc.Predict(x)
	}
	if acc := Accuracy(y, pred); acc < 0.9 {
		t.Errorf("XOR accuracy = %v, want >= 0.9", acc)
	}
}

func TestTreeClassifierProbaSumsToOne(t *testing.T) {
	X, y := xorData(100, 3)
	tc := &TreeClassifier{Config: TreeConfig{MaxDepth: 3}}
	tc.FitData(dsOf(X, y))
	for _, x := range X[:10] {
		p := tc.PredictProba(x)
		var s float64
		for _, v := range p {
			if v < 0 {
				t.Fatal("negative probability")
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("proba sums to %v", s)
		}
	}
}

func TestTreePureLeafStopsEarly(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{5, 5, 5, 5}
	tr := &TreeRegressor{Config: TreeConfig{MaxDepth: 5}}
	tr.FitData(dsOf(X, y))
	if !tr.root.leaf {
		t.Error("constant target should produce a single leaf")
	}
	if tr.Predict([]float64{10}) != 5 {
		t.Error("constant prediction expected")
	}
}

func TestTreeMinLeafRespected(t *testing.T) {
	X, y := linearData(50, 4)
	tr := &TreeRegressor{Config: TreeConfig{MaxDepth: 20, MinLeaf: 10}}
	tr.FitData(dsOf(X, y))
	var check func(n *treeNode) bool
	check = func(n *treeNode) bool {
		if n == nil {
			return true
		}
		if n.leaf {
			return n.nSamples >= 10
		}
		return check(n.left) && check(n.right)
	}
	if !check(tr.root) {
		t.Error("leaf smaller than MinLeaf found")
	}
}

func TestTreeDeterministic(t *testing.T) {
	X, y := linearData(200, 5)
	t1 := &TreeRegressor{Config: TreeConfig{MaxDepth: 6, Seed: 9}}
	t2 := &TreeRegressor{Config: TreeConfig{MaxDepth: 6, Seed: 9}}
	t1.FitData(dsOf(X, y))
	t2.FitData(dsOf(X, y))
	for _, x := range X[:20] {
		if t1.Predict(x) != t2.Predict(x) {
			t.Fatal("same seed must give identical trees")
		}
	}
}

func TestTreeImportancesNormalized(t *testing.T) {
	X, y := linearData(200, 6)
	tr := &TreeRegressor{Config: TreeConfig{MaxDepth: 6}}
	tr.FitData(dsOf(X, y))
	imp := tr.Importances(2)
	var s float64
	for _, v := range imp {
		if v < 0 {
			t.Fatal("negative importance")
		}
		s += v
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("importances sum to %v, want 1", s)
	}
}

// On a 0/1 frame built by frameFromCols, histSplit must return
// bestSplitOrdered's gain bit for bit, not only the same split: a gain
// one ulp off can flip a later comparison between features. Segments
// are random ascending subsets of the positions, with zero counts at
// every minLeaf edge and constant targets mixed in.
func TestZeroOneSplitMatchesOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, minLeaf = 40, 3
	ws := new(treeScratch)
	ws.ensureGrow(0, n)
	for trial := 0; trial < 600; trial++ {
		var seg []int32
		for p := 0; p < n; p++ {
			if rng.Intn(4) > 0 {
				seg = append(seg, int32(p))
			}
		}
		m := len(seg)
		zeros := [...]int{0, minLeaf - 1, minLeaf, m - minLeaf, m, rng.Intn(m + 1)}[trial%6]
		col := make([]float64, n)
		for i := range col {
			col[i] = float64(rng.Intn(2))
		}
		for k, i := range rng.Perm(m) {
			col[seg[i]] = 0
			if k >= zeros {
				col[seg[i]] = 1
			}
		}
		y := make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64()
			if trial%5 == 0 {
				y[i] = 0.3
			}
		}
		// The generic scan's input: the segment sorted by (value, position).
		var order []int32
		for _, side := range []float64{0, 1} {
			for _, p := range seg {
				if col[p] == side {
					order = append(order, p)
				}
			}
		}
		fr := &frame{cols: [][]float64{col}, y: y, n: n, nf: 1}
		ws.quantize(y)
		wantGain, wantThresh, wantOK := bestSplitOrdered(fr, order, 0, minLeaf, 0, false, 0, ws)
		lfr := frameFromCols([][]float64{col}, y, ws)
		if !lfr.leveled {
			t.Fatal("0/1 columns should make a leveled frame")
		}
		gain, thresh, ok := histSplit(lfr, 0, seg, minLeaf, ws)
		ws.putFrame(lfr)
		if math.Float64bits(gain) != math.Float64bits(wantGain) || thresh != wantThresh || ok != wantOK {
			t.Fatalf("trial %d (%d zeros of %d): hist = (%v, %v, %v), ordered = (%v, %v, %v)",
				trial, zeros, m, gain, thresh, ok, wantGain, wantThresh, wantOK)
		}
	}
}

// histSplit is the production split search of one feature of a leveled
// regression node whose rows are seg: fill the feature's histogram
// block, then scan it.
func histSplit(fr *frame, f int, seg []int32, minLeaf int, ws *treeScratch) (gain, thresh float64, ok bool) {
	ws.prepareHist(fr)
	ws.fillHist(fr, []int{f}, seg, 0)
	return ws.scanHist(fr, f, 0, len(seg), minLeaf)
}
