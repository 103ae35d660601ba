package ml

import "math"

// LinearRegression fits ordinary least squares with L2 ridge damping via
// the normal equations, solved by Gaussian elimination with partial
// pivoting. Deterministic and training-free of randomness.
type LinearRegression struct {
	Ridge   float64 // L2 regularization strength; default 1e-6 for stability
	Weights []float64
	Bias    float64
}

// FitData solves (X'X + λI) w = X'y over a data view. X'X and X'y are
// accumulated row by row through one reused gather buffer (every cell
// sums in row order, so a dataset and a matrix view of the same numbers
// agree bit for bit), then the diagonal is damped and the system
// eliminated.
func (l *LinearRegression) FitData(d Data) {
	n, nf := d.NumRows(), d.NumFeatures()
	if n == 0 {
		l.Weights = nil
		l.Bias = 0
		return
	}
	lam := l.Ridge
	if lam <= 0 {
		lam = 1e-6
	}
	// Augment with a bias column.
	m := nf + 1
	A := make([][]float64, m)
	for i := range A {
		A[i] = make([]float64, m+1)
	}
	row := make([]float64, m)
	for i := 0; i < n; i++ {
		d.Row(i, row[:nf])
		row[nf] = 1
		yi := d.Label(i)
		for a := 0; a < m; a++ {
			for b := 0; b < m; b++ {
				A[a][b] += row[a] * row[b]
			}
			A[a][m] += row[a] * yi
		}
	}
	for i := 0; i < m; i++ {
		A[i][i] += lam
	}
	w := solveGauss(A, m)
	l.Weights = w[:nf]
	l.Bias = w[nf]
}

// Predict returns w·x + b.
func (l *LinearRegression) Predict(x []float64) float64 {
	out := l.Bias
	for i, wi := range l.Weights {
		if i < len(x) {
			out += wi * x[i]
		}
	}
	return out
}

// solveGauss solves the augmented d x (d+1) system in-place.
func solveGauss(A [][]float64, d int) []float64 {
	for col := 0; col < d; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < d; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[piv][col]) {
				piv = r
			}
		}
		A[col], A[piv] = A[piv], A[col]
		if A[col][col] == 0 {
			continue
		}
		for r := col + 1; r < d; r++ {
			f := A[r][col] / A[col][col]
			for c := col; c <= d; c++ {
				A[r][c] -= f * A[col][c]
			}
		}
	}
	w := make([]float64, d)
	for r := d - 1; r >= 0; r-- {
		if A[r][r] == 0 {
			continue
		}
		s := A[r][d]
		for c := r + 1; c < d; c++ {
			s -= A[r][c] * w[c]
		}
		w[r] = s / A[r][r]
	}
	return w
}

// LogisticRegression is a binary classifier trained by full-batch
// gradient descent with a fixed iteration budget — the paper's
// LR_avocado model (T3). Features are standardized internally so the
// fixed learning rate behaves across scales.
type LogisticRegression struct {
	LearningRate float64 // default 0.1
	Iterations   int     // default 200
	L2           float64 // default 1e-4
	Weights      []float64
	Bias         float64
	mu, sigma    []float64
}

// FitData trains on a data view whose labels are 0 or 1: rows are
// gathered once into a single slab for fitRows, whose math only reads
// the values.
func (l *LogisticRegression) FitData(d Data) {
	l.fitRows(gatherRows(d), Labels(d))
}

// fitRows runs the fixed-budget gradient descent over row-major X.
func (l *LogisticRegression) fitRows(X [][]float64, y []float64) {
	if len(X) == 0 {
		l.Weights = nil
		return
	}
	lr := l.LearningRate
	if lr <= 0 {
		lr = 0.1
	}
	iters := l.Iterations
	if iters <= 0 {
		iters = 200
	}
	nf := len(X[0])
	l.mu, l.sigma = standardStats(X, nf)
	Z := standardize(X, l.mu, l.sigma)

	l.Weights = make([]float64, nf)
	l.Bias = 0
	n := float64(len(Z))
	gw := make([]float64, nf)
	for it := 0; it < iters; it++ {
		for i := range gw {
			gw[i] = 0
		}
		gb := 0.0
		for i, zi := range Z {
			p := sigmoid(dot(l.Weights, zi) + l.Bias)
			e := p - y[i]
			for j := range gw {
				gw[j] += e * zi[j]
			}
			gb += e
		}
		for j := range l.Weights {
			l.Weights[j] -= lr * (gw[j]/n + l.L2*l.Weights[j])
		}
		l.Bias -= lr * gb / n
	}
}

// PredictProba returns P(y=1 | x). It standardizes x inside the dot
// product, so a prediction allocates nothing: each term rounds as the
// standardized copy fitRows trains on would.
func (l *LogisticRegression) PredictProba(x []float64) float64 {
	s := 0.0
	for j, w := range l.Weights[:min(len(l.Weights), len(l.mu))] {
		var z float64
		if j < len(x) {
			z = (x[j] - l.mu[j]) / l.sigma[j]
		}
		s += w * z
	}
	return sigmoid(s + l.Bias)
}

// Predict returns the hard 0/1 label.
func (l *LogisticRegression) Predict(x []float64) float64 {
	if l.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// AbsWeights returns |w| per feature in the standardized space, a
// coefficient-magnitude importance used by the H2O-like baseline.
func (l *LogisticRegression) AbsWeights() []float64 {
	out := make([]float64, len(l.Weights))
	for i, w := range l.Weights {
		out[i] = math.Abs(w)
	}
	return out
}

func standardStats(X [][]float64, nf int) (mu, sigma []float64) {
	mu = make([]float64, nf)
	sigma = make([]float64, nf)
	n := float64(len(X))
	for _, r := range X {
		for j := 0; j < nf && j < len(r); j++ {
			mu[j] += r[j]
		}
	}
	for j := range mu {
		mu[j] /= n
	}
	for _, r := range X {
		for j := 0; j < nf && j < len(r); j++ {
			d := r[j] - mu[j]
			sigma[j] += d * d
		}
	}
	for j := range sigma {
		sigma[j] = math.Sqrt(sigma[j] / n)
		if sigma[j] == 0 {
			sigma[j] = 1
		}
	}
	return mu, sigma
}

func standardize(X [][]float64, mu, sigma []float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, r := range X {
		out[i] = standardizeRow(r, mu, sigma)
	}
	return out
}

func standardizeRow(x []float64, mu, sigma []float64) []float64 {
	out := make([]float64, len(mu))
	for j := range mu {
		if j < len(x) {
			out[j] = (x[j] - mu[j]) / sigma[j]
		}
	}
	return out
}

func dot(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}
