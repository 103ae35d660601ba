package ml

import "math"

// GBMConfig controls gradient boosting.
type GBMConfig struct {
	NumTrees     int     // default 50
	MaxDepth     int     // default 3
	MinLeaf      int     // default 2
	LearningRate float64 // default 0.1
	Seed         int64
}

func (c GBMConfig) withDefaults() GBMConfig {
	if c.NumTrees <= 0 {
		c.NumTrees = 50
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 3
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	return c
}

// GBMRegressor is gradient boosting with squared loss — the paper's
// GB_movie model (T1) and the base learner of the MO-GBM estimator.
type GBMRegressor struct {
	Config GBMConfig
	bias   float64
	trees  []*TreeRegressor
	lr     float64
}

// FitData trains the boosted ensemble on a columnar data view.
func (g *GBMRegressor) FitData(d Data) {
	ws := getScratch()
	fr := d.buildFrame(ws)
	g.fitFrame(fr, ws)
	ws.putFrame(fr)
	putScratch(ws)
}

// fitFrame boosts over a columnar frame. Because the feature columns
// never change across stages, the frame's presorted orders, and its
// value levels when it qualifies, are computed once and reused by every
// tree — only the residual target is refreshed per stage.
func (g *GBMRegressor) fitFrame(fr *frame, ws *treeScratch) {
	cfg := g.Config.withDefaults()
	if !fr.leveled {
		fr.readLevels()
	}
	g.lr = cfg.LearningRate
	g.bias = mean(fr.y)
	g.trees = g.trees[:0]
	if fr.n == 0 {
		return
	}
	pred := make([]float64, fr.n)
	for i := range pred {
		pred[i] = g.bias
	}
	resid := make([]float64, fr.n)
	target := fr.y
	for t := 0; t < cfg.NumTrees; t++ {
		m := 0.0
		for i := range resid {
			r := target[i] - pred[i]
			resid[i] = r
			m = max(m, math.Abs(r)) // NaN if any r is NaN
		}
		g.trees = append(g.trees, fitStage(cfg, fr, resid, m, pred, ws))
	}
	fr.y = target
}

// Predict returns the boosted prediction for one example.
func (g *GBMRegressor) Predict(x []float64) float64 {
	out := g.bias
	for _, t := range g.trees {
		out += g.lr * t.Predict(x)
	}
	return out
}

// Importances averages split importances over all boosting stages.
func (g *GBMRegressor) Importances(nf int) []float64 {
	acc := make([]float64, nf)
	for _, t := range g.trees {
		ti := t.Importances(nf)
		for i := range acc {
			acc[i] += ti[i]
		}
	}
	normalizeSum(acc)
	return acc
}

// fitStage grows the next boosting tree on the frame with the stage's
// pseudo-target, whose max |target| (NaN when one is NaN) is ymax, and
// adds LearningRate times its output to every row's running prediction
// pred, taking each row's output from the leaf value growth records for
// it rather than walking the finished tree.
func fitStage(cfg GBMConfig, fr *frame, target []float64, ymax float64, pred []float64, ws *treeScratch) *TreeRegressor {
	tree := &TreeRegressor{Config: TreeConfig{MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf}}
	fr.y = target
	if cap(ws.leafBuf) < fr.n {
		ws.leafBuf = make([]float64, fr.n)
	}
	ws.leafv = ws.leafBuf[:fr.n]
	tree.root = growFit(fr, tree.Config, nil, false, 0, ws.quantizeMax(target, ymax), ws)
	for i, v := range ws.leafv {
		pred[i] += cfg.LearningRate * v
	}
	ws.leafv = nil
	return tree
}

// GBMClassifier is binary gradient boosting with logistic loss; labels
// must be 0/1. Multi-class inputs are handled one-vs-rest by callers.
type GBMClassifier struct {
	Config GBMConfig
	bias   float64
	trees  []*TreeRegressor
	lr     float64
}

// FitData trains the boosted classifier on a data view whose labels
// are 0 or 1.
func (g *GBMClassifier) FitData(d Data) {
	ws := getScratch()
	fr := d.buildFrame(ws)
	g.fitFrame(fr, ws)
	ws.putFrame(fr)
	putScratch(ws)
}

func (g *GBMClassifier) fitFrame(fr *frame, ws *treeScratch) {
	cfg := g.Config.withDefaults()
	if !fr.leveled {
		fr.readLevels()
	}
	g.lr = cfg.LearningRate
	g.trees = g.trees[:0]
	if fr.n == 0 {
		return
	}
	p := mean(fr.y)
	p = clamp(p, 1e-6, 1-1e-6)
	g.bias = math.Log(p / (1 - p))
	raw := make([]float64, fr.n)
	for i := range raw {
		raw[i] = g.bias
	}
	grad := make([]float64, fr.n)
	target := fr.y
	for t := 0; t < cfg.NumTrees; t++ {
		m := 0.0
		for i := range grad {
			r := target[i] - sigmoid(raw[i])
			grad[i] = r
			m = max(m, math.Abs(r)) // NaN if any r is NaN
		}
		g.trees = append(g.trees, fitStage(cfg, fr, grad, m, raw, ws))
	}
	fr.y = target
}

// PredictProba returns P(y=1 | x).
func (g *GBMClassifier) PredictProba(x []float64) float64 {
	raw := g.bias
	for _, t := range g.trees {
		raw += g.lr * t.Predict(x)
	}
	return sigmoid(raw)
}

// Predict returns the hard 0/1 label at threshold 0.5.
func (g *GBMClassifier) Predict(x []float64) float64 {
	if g.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// Importances averages split importances over all boosting stages.
func (g *GBMClassifier) Importances(nf int) []float64 {
	acc := make([]float64, nf)
	for _, t := range g.trees {
		ti := t.Importances(nf)
		for i := range acc {
			acc[i] += ti[i]
		}
	}
	normalizeSum(acc)
	return acc
}

// MultiOutputGBM fits one GBMRegressor per output dimension: the MO-GBM
// surrogate (Section 2, "Estimators") that valuates a whole performance
// vector with a single call.
type MultiOutputGBM struct {
	Config GBMConfig
	models []*GBMRegressor
}

// FitColsTasks trains on column-major data: cols[f] lists feature f
// over all n examples, targets[j] lists output j. It returns one
// self-contained task per output, for callers that run them on a worker
// pool. Task j fits output j with its fixed seed on its own scratch and
// writes only model slot j, so the tasks may run in any order, on any
// goroutines, and the model is the same. The model is ready once every
// task has returned; cols and targets must not change before then.
// Callers that accumulate observations incrementally — the MO-GBM
// estimator — keep their history in this layout and refit without any
// per-fit reshaping; the grown trees are bit-identical to one
// GBMRegressor.FitData per output on the row-major equivalent (see
// frameFromCols).
func (m *MultiOutputGBM) FitColsTasks(n int, cols [][]float64, targets [][]float64) []func() {
	if len(targets) == 0 || n == 0 {
		m.models = nil
		return nil
	}
	m.models = make([]*GBMRegressor, len(targets))
	tasks := make([]func(), len(targets))
	for j, tgt := range targets {
		tasks[j] = func() {
			g := &GBMRegressor{Config: m.Config}
			g.Config.Seed = m.Config.Seed + int64(j)*7919
			ws := getScratch()
			fr := frameFromCols(cols, tgt[:n], ws)
			g.fitFrame(fr, ws)
			ws.putFrame(fr)
			putScratch(ws)
			m.models[j] = g
		}
	}
	return tasks
}

// Predict returns the full output vector for one example.
func (m *MultiOutputGBM) Predict(x []float64) []float64 {
	out := make([]float64, len(m.models))
	for j, g := range m.models {
		out[j] = g.Predict(x)
	}
	return out
}

// NumOutputs reports the output dimensionality.
func (m *MultiOutputGBM) NumOutputs() int { return len(m.models) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
