package ml

import (
	"math"
	"math/rand"
	"testing"
)

func TestLinearRegressionRecoversWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X := make([][]float64, 500)
	y := make([]float64, 500)
	for i := range X {
		a, b := rng.Float64(), rng.Float64()
		X[i] = []float64{a, b}
		y[i] = 2*a - 3*b + 1
	}
	lr := &LinearRegression{}
	lr.FitData(dsOf(X, y))
	if math.Abs(lr.Weights[0]-2) > 0.01 || math.Abs(lr.Weights[1]+3) > 0.01 {
		t.Errorf("weights = %v, want [2 -3]", lr.Weights)
	}
	if math.Abs(lr.Bias-1) > 0.01 {
		t.Errorf("bias = %v, want 1", lr.Bias)
	}
}

func TestLinearRegressionEmpty(t *testing.T) {
	lr := &LinearRegression{}
	lr.FitData(dsOf(nil, nil))
	if lr.Predict([]float64{1, 2}) != 0 {
		t.Error("empty-fit model should predict 0")
	}
}

func TestLinearRegressionCollinear(t *testing.T) {
	// Duplicate features: ridge damping must keep the solve stable.
	X := [][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	y := []float64{2, 4, 6, 8}
	lr := &LinearRegression{Ridge: 1e-3}
	lr.FitData(dsOf(X, y))
	for i, x := range X {
		if math.Abs(lr.Predict(x)-y[i]) > 0.1 {
			t.Errorf("collinear fit: pred %v want %v", lr.Predict(x), y[i])
		}
	}
}

func TestLogisticRegressionSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X := make([][]float64, 400)
	y := make([]float64, 400)
	for i := range X {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		X[i] = []float64{a, b}
		if a+b > 0 {
			y[i] = 1
		}
	}
	lr := &LogisticRegression{Iterations: 300}
	lr.FitData(dsOf(X, y))
	pred := make([]float64, len(y))
	for i, x := range X {
		pred[i] = lr.Predict(x)
	}
	if acc := Accuracy(y, pred); acc < 0.95 {
		t.Errorf("separable logistic accuracy = %v, want >= 0.95", acc)
	}
}

func TestLogisticRegressionProbaRange(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{0, 0, 1, 1}
	lr := &LogisticRegression{}
	lr.FitData(dsOf(X, y))
	for _, x := range X {
		p := lr.PredictProba(x)
		if p < 0 || p > 1 {
			t.Fatalf("probability out of range: %v", p)
		}
	}
	// Monotone in x for this 1-D problem.
	if lr.PredictProba([]float64{0}) >= lr.PredictProba([]float64{3}) {
		t.Error("logistic should be increasing on this data")
	}
}

func TestAbsWeights(t *testing.T) {
	lr := &LogisticRegression{}
	lr.Weights = []float64{-2, 3}
	w := lr.AbsWeights()
	if w[0] != 2 || w[1] != 3 {
		t.Errorf("AbsWeights = %v", w)
	}
}

func TestSolveGaussIdentity(t *testing.T) {
	// x = 5, y = -2 via identity system.
	A := [][]float64{{1, 0, 5}, {0, 1, -2}}
	w := solveGauss(A, 2)
	if w[0] != 5 || w[1] != -2 {
		t.Errorf("solveGauss = %v", w)
	}
}

func TestSolveGaussPivoting(t *testing.T) {
	// Requires a row swap: first pivot is 0.
	A := [][]float64{{0, 1, 3}, {2, 0, 4}}
	w := solveGauss(A, 2)
	if math.Abs(w[0]-2) > 1e-12 || math.Abs(w[1]-3) > 1e-12 {
		t.Errorf("solveGauss with pivoting = %v, want [2 3]", w)
	}
}
