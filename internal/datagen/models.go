package datagen

import (
	"math"

	"repro/internal/estimator"
	"repro/internal/fst"
	"repro/internal/ml"
	"repro/internal/table"
)

// TableModel adapts a learner family to the fst.Model interface: a
// fixed, deterministic model whose Evaluate trains on the dataset's
// train split and reports raw metrics on the test split. Models built
// by this package supply both routes to the same evaluation body, and
// both encode through one Matrix construction (ml.TableEncoder): Eval
// receives the materialized child table, which UDFs may have
// transformed, and encodes it as the View of a Matrix built over the
// child; EvalRows receives the state's selected rows and views the
// universal table's Matrix at them, with no materialization. The two
// must return bit-identical metrics — a property the tests enforce.
type TableModel struct {
	ModelName string
	Eval      func(d *table.Table) ([]float64, error)
	// EvalRows, when set, valuates a state straight from the space's
	// row view; returning ok=false falls back to Eval.
	EvalRows func(v fst.RowsView) (raw []float64, ok bool, err error)
}

// Name implements fst.Model.
func (m *TableModel) Name() string { return m.ModelName }

// Evaluate implements fst.Model.
func (m *TableModel) Evaluate(d *table.Table) ([]float64, error) { return m.Eval(d) }

// EvaluateRows implements fst.RowsModel.
func (m *TableModel) EvaluateRows(v fst.RowsView) ([]float64, bool, error) {
	if m.EvalRows == nil {
		return nil, false, nil
	}
	return m.EvalRows(v)
}

// rowsEval adapts a Data-generic evaluation body into a TableModel
// EvalRows hook over the encoder's frozen matrix encoding, which is
// built on first valuation (enc.Matrix is once-guarded), not at
// workload construction.
func rowsEval(enc *ml.TableEncoder, eval func(ml.Data) ([]float64, error)) func(fst.RowsView) ([]float64, bool, error) {
	return func(v fst.RowsView) ([]float64, bool, error) {
		view := enc.Matrix().View(v.Rows, v.Masked)
		raw, err := eval(view)
		// The evaluation body is done with the view (and any splits
		// derived from it) once it returns its metrics, so the view's
		// encoding buffers go back to the matrix's pool here.
		view.Release()
		return raw, true, err
	}
}

// predictAll runs a fitted point predictor over every test example,
// returning predictions and labels in row order.
func predictAll(predict func([]float64) float64, test ml.Data) (pred, y []float64) {
	n := test.NumRows()
	pred = make([]float64, n)
	y = make([]float64, n)
	buf := make([]float64, test.NumFeatures())
	for i := 0; i < n; i++ {
		pred[i] = predict(test.Row(i, buf))
		y[i] = test.Label(i)
	}
	return pred, y
}

// Workload bundles everything a discovery run needs: the lake, the FST
// space over its universal table, the task model and its measures.
type Workload struct {
	Name     string
	Lake     *Lake
	Space    *fst.Space
	Model    fst.Model
	Measures []fst.Measure
}

// NewConfig builds a discovery configuration; useSurrogate enables the
// MO-GBM estimator after a short exact warm-up, matching the paper's
// setting; without it every state runs real model inference.
func (w *Workload) NewConfig(useSurrogate bool) *fst.Config {
	cfg := &fst.Config{
		Space:    w.Space,
		Model:    w.Model,
		Measures: w.Measures,
		Tests:    fst.NewTestSet(),
	}
	if useSurrogate {
		cfg.Est = estimator.NewMOGBM()
		// Warm up on at least the whole first BFS level so the surrogate
		// has seen the effect of every single-entry flip before it is
		// trusted, then keep refreshing with periodic exact calls.
		cfg.WarmupExact = w.Space.Size() + 1
		cfg.ExactEvery = 4
	}
	return cfg
}

// minEvalRows is the smallest dataset a model will train on; below it
// the evaluation reports worst-case metrics. The floor keeps discovery
// from converging to unusable micro-datasets whose test split is so
// small that metrics saturate (a handful of rows classify perfectly).
const minEvalRows = 40

// trainCost is the deterministic training-cost proxy: examples ×
// features × a per-family constant. The paper measures wall-clock
// training time; a deterministic proxy with the same monotone shape
// keeps runs reproducible (see DESIGN.md).
func trainCost(n, f int, k float64) float64 { return float64(n) * float64(max(f, 1)) * k }

// squash maps an unbounded non-negative score into [0, 1).
func squash(x float64) float64 {
	if x < 0 || math.IsNaN(x) {
		return 0
	}
	return x / (1 + x)
}

// featureScores returns the mean Fisher score and mean mutual
// information of the dataset's features against the (discretized)
// target, reading the data columnar-wise so both the encoded-dataset
// route and the matrix-view route score identically.
func featureScores(d ml.Data, classes int) (fsc, mi float64) {
	if d.NumRows() == 0 || d.NumFeatures() == 0 {
		return 0, 0
	}
	y := ml.Labels(d)
	if classes <= 0 {
		// Regression target: discretize into quintiles for scoring.
		y = discretizeTarget(y, 5)
	}
	fs := ml.FisherScoreData(d, y)
	ms := ml.MutualInformationData(d, y, 8)
	var sf, sm float64
	for i := range fs {
		sf += fs[i]
	}
	for i := range ms {
		sm += ms[i]
	}
	n := float64(len(fs))
	if n == 0 {
		return 0, 0
	}
	return sf / n, sm / n
}

func discretizeTarget(y []float64, k int) []float64 {
	return toClasses(y, k)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// worst returns the all-worst raw metric vector for a metric layout
// where higherBetter[i] marks metrics that are maximized.
func worst(higherBetter []bool) []float64 {
	out := make([]float64, len(higherBetter))
	for i, hb := range higherBetter {
		if hb {
			out[i] = 0
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}
