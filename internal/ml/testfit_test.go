package ml

// Entry points that no binary links but the tests drive: single-tree
// and binary-boosting fits on a data view, and the accessors the tests
// read models and views through.

// FitData grows the tree on a columnar data view.
func (t *TreeRegressor) FitData(d Data) {
	ws := getScratch()
	fr := d.buildFrame(ws)
	fr.readLevels()
	t.fitFrame(fr, ws)
	ws.putFrame(fr)
	putScratch(ws)
}

// FitData grows the tree on a data view whose labels are class ids
// 0..NumClass-1.
func (t *TreeClassifier) FitData(d Data) {
	ws := getScratch()
	fr := d.buildFrame(ws)
	fr.readLevels()
	t.fitFrame(fr, ws)
	ws.putFrame(fr)
	putScratch(ws)
}

// Predict returns the arg-max class for a single example.
func (t *TreeClassifier) Predict(x []float64) float64 {
	return float64(argmax(t.PredictProba(x)))
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

// PredictProba returns averaged class probabilities.
func (f *ForestClassifier) PredictProba(x []float64) []float64 {
	return f.probaInto(make([]float64, f.NumClass), x)
}

// NumOutputs reports the output dimensionality.
func (m *MultiOutputGBM) NumOutputs() int { return len(m.models) }

// FeatureNames returns the active feature names in dataset order.
func (v *View) FeatureNames() []string {
	out := make([]string, len(v.feats))
	for k, ci := range v.feats {
		out[k] = v.m.cols[ci].name
	}
	return out
}
