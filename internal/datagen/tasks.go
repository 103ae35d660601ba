package datagen

import (
	"math"

	"repro/internal/fst"
	"repro/internal/ml"
	"repro/internal/skyline"
	"repro/internal/table"
)

// TaskConfig scales a workload; zero values take task defaults.
type TaskConfig struct {
	Rows       int
	InfoAttrs  int
	NoiseAttrs int
	AdomK      int
	Seed       int64
}

func (c TaskConfig) merge(rows, info, noise, adomK int, seed int64) LakeConfig {
	out := LakeConfig{Rows: rows, InfoAttrs: info, NoiseAttrs: noise, AdomK: adomK, Seed: seed}
	if c.Rows > 0 {
		out.Rows = c.Rows
	}
	if c.InfoAttrs > 0 {
		out.InfoAttrs = c.InfoAttrs
	}
	if c.NoiseAttrs > 0 {
		out.NoiseAttrs = c.NoiseAttrs
	}
	if c.AdomK > 0 {
		out.AdomK = c.AdomK
	}
	if c.Seed != 0 {
		out.Seed = c.Seed
	}
	return out
}

const measureFloor = 1e-3

// newSpace builds the FST space over a lake's universal table. The
// encoder is created first and doubles as the space's column source:
// both the per-attribute literal clustering and the per-literal row
// index derive from the matrix's frozen floats rather than a second
// walk of the universal cells.
func newSpace(l *Lake, enc *ml.TableEncoder) *fst.Space {
	return fst.NewSpace(l.Universal, l.Target, fst.SpaceConfig{
		MaxLiteralsPerAttr: l.Config.AdomK,
		SkipLiteralAttrs:   []string{"id"},
		ProtectedAttrs:     []string{"id"},
		Columns:            enc,
	})
}

// taskEncoder is the shared encoder of a task's universal table; the
// id column is skipped in place, so models never clone children
// through DropColumn.
func taskEncoder(l *Lake) *ml.TableEncoder {
	return ml.NewTableEncoderSkip(l.Universal, l.Target, "id")
}

// taskModel wires one Data-generic evaluation body into both valuation
// routes of a TableModel: the table route encodes the materialized
// child through the shared encoder, the rows route views the frozen
// matrix at the state's selected rows. Each task's metrics are
// computed once, in one body, so the routes cannot drift.
func taskModel(name string, enc *ml.TableEncoder, eval func(ml.Data) ([]float64, error)) *TableModel {
	return &TableModel{
		ModelName: name,
		Eval:      func(d *table.Table) ([]float64, error) { return eval(enc.Encode(d)) },
		EvalRows:  rowsEval(enc, eval),
	}
}

// T1Movie is task T1: a gradient boosting regressor predicting movie
// gross, with measures P1 = {p_Acc, p_Train, p_Fsc, p_MI}.
func T1Movie(tc TaskConfig) *Workload {
	lc := tc.merge(360, 5, 4, 4, 101)
	lc.Name = "movie"
	lc.Classes = 0
	lc.NoisyRowFrac = 0.3
	lake := NewLake(lc)
	maxCost := trainCost(lake.Universal.NumRows(), lake.Universal.NumCols(), 1)

	eval := func(ds ml.Data) ([]float64, error) {
		if ds.NumRows() < minEvalRows || ds.NumFeatures() == 0 {
			return worst([]bool{true, false, true, true}), nil
		}
		train, test := ds.SplitData(0.3, 42)
		g := &ml.GBMRegressor{Config: ml.GBMConfig{NumTrees: 30, MaxDepth: 3, Seed: 1}}
		g.FitData(train)
		pred, testY := predictAll(g.Predict, test)
		acc := math.Max(0, ml.R2(testY, pred))
		fsc, mi := featureScores(ds, 0)
		cost := trainCost(train.NumRows(), train.NumFeatures(), 1)
		return []float64{acc, cost, fsc, mi}, nil
	}
	measures := []fst.Measure{
		{Name: "pAcc", Bounds: skyline.DefaultBounds(), Normalize: fst.Inverted(measureFloor)},
		{Name: "pTrain", Bounds: skyline.DefaultBounds(), Normalize: fst.Scaled(maxCost, measureFloor)},
		{Name: "pFsc", Bounds: skyline.DefaultBounds(), Normalize: invSquash()},
		{Name: "pMI", Bounds: skyline.DefaultBounds(), Normalize: invSquash()},
	}
	enc := taskEncoder(lake)
	sp := newSpace(lake, enc)
	return &Workload{Name: "T1", Lake: lake, Space: sp, Model: taskModel("GBmovie", enc, eval), Measures: measures}
}

// T2House is task T2: a random forest classifying house price levels,
// with measures P2 = {p_F1, p_Acc, p_Train, p_Fsc, p_MI}.
func T2House(tc TaskConfig) *Workload {
	lc := tc.merge(300, 4, 4, 4, 103)
	lc.Name = "house"
	lc.Classes = 3
	lc.NoisyRowFrac = 0.35
	lake := NewLake(lc)
	maxCost := trainCost(lake.Universal.NumRows(), lake.Universal.NumCols(), 2)

	eval := func(ds ml.Data) ([]float64, error) {
		if ds.NumRows() < minEvalRows || ds.NumFeatures() == 0 {
			return worst([]bool{true, true, false, true, true}), nil
		}
		train, test := ds.SplitData(0.3, 42)
		f := &ml.ForestClassifier{Config: ml.ForestConfig{NumTrees: 12, MaxDepth: 6, Seed: 1}, NumClass: 3}
		f.FitData(train)
		pred, testY := predictAll(f.Predict, test)
		acc := ml.Accuracy(testY, pred)
		_, _, f1 := ml.PrecisionRecallF1(testY, pred)
		fsc, mi := featureScores(ds, 3)
		cost := trainCost(train.NumRows(), train.NumFeatures(), 2)
		return []float64{f1, acc, cost, fsc, mi}, nil
	}
	measures := []fst.Measure{
		{Name: "pF1", Bounds: skyline.DefaultBounds(), Normalize: fst.Inverted(measureFloor)},
		{Name: "pAcc", Bounds: skyline.DefaultBounds(), Normalize: fst.Inverted(measureFloor)},
		{Name: "pTrain", Bounds: skyline.DefaultBounds(), Normalize: fst.Scaled(maxCost, measureFloor)},
		{Name: "pFsc", Bounds: skyline.DefaultBounds(), Normalize: invSquash()},
		{Name: "pMI", Bounds: skyline.DefaultBounds(), Normalize: invSquash()},
	}
	enc := taskEncoder(lake)
	sp := newSpace(lake, enc)
	return &Workload{Name: "T2", Lake: lake, Space: sp, Model: taskModel("RFhouse", enc, eval), Measures: measures}
}

// T3Avocado is task T3: a linear model predicting avocado prices, with
// measures P3 = {p_MSE, p_MAE, p_Train}.
func T3Avocado(tc TaskConfig) *Workload {
	lc := tc.merge(420, 4, 3, 4, 107)
	lc.Name = "avocado"
	lc.Classes = 0
	lc.NoisyRowFrac = 0.3
	lake := NewLake(lc)
	maxCost := trainCost(lake.Universal.NumRows(), lake.Universal.NumCols(), 0.5)

	eval := func(ds ml.Data) ([]float64, error) {
		if ds.NumRows() < minEvalRows || ds.NumFeatures() == 0 {
			return []float64{1, 1, maxCost}, nil
		}
		train, test := ds.SplitData(0.3, 42)
		lr := &ml.LinearRegression{}
		lr.FitData(train)
		pred, testY := predictAll(lr.Predict, test)
		// Relative errors: MSE over target variance, MAE over target
		// spread, keeping the raw metrics in (0,1] regardless of scale.
		vy := variance(testY)
		if vy == 0 {
			vy = 1
		}
		mse := math.Min(1, ml.MSE(testY, pred)/vy)
		mae := math.Min(1, ml.MAE(testY, pred)/math.Sqrt(vy))
		cost := trainCost(train.NumRows(), train.NumFeatures(), 0.5)
		return []float64{mse, mae, cost}, nil
	}
	measures := []fst.Measure{
		{Name: "pMSE", Bounds: skyline.DefaultBounds(), Normalize: fst.Identity(measureFloor)},
		{Name: "pMAE", Bounds: skyline.DefaultBounds(), Normalize: fst.Identity(measureFloor)},
		{Name: "pTrain", Bounds: skyline.DefaultBounds(), Normalize: fst.Scaled(maxCost, measureFloor)},
	}
	enc := taskEncoder(lake)
	sp := newSpace(lake, enc)
	return &Workload{Name: "T3", Lake: lake, Space: sp, Model: taskModel("LRavocado", enc, eval), Measures: measures}
}

// T4Mental is task T4: a histogram-GBDT (LightGBM stand-in) classifying
// mental health status, with measures P4 = {p_Acc, p_Pc, p_Rc, p_F1,
// p_AUC, p_Train}.
func T4Mental(tc TaskConfig) *Workload {
	lc := tc.merge(320, 5, 4, 4, 109)
	lc.Name = "mental"
	lc.Classes = 2
	lc.NoisyRowFrac = 0.35
	lake := NewLake(lc)
	maxCost := trainCost(lake.Universal.NumRows(), lake.Universal.NumCols(), 1.5)

	eval := func(ds ml.Data) ([]float64, error) {
		if ds.NumRows() < minEvalRows || ds.NumFeatures() == 0 {
			return worst([]bool{true, true, true, true, true, false}), nil
		}
		train, test := ds.SplitData(0.3, 42)
		h := &ml.HistGBMClassifier{Config: ml.HistGBMConfig{
			GBM:     ml.GBMConfig{NumTrees: 25, MaxDepth: 3, Seed: 1},
			NumBins: 16,
		}}
		h.FitData(train)
		n := test.NumRows()
		pred := make([]float64, n)
		scores := make([]float64, n)
		testY := make([]float64, n)
		buf := make([]float64, test.NumFeatures())
		for i := 0; i < n; i++ {
			scores[i] = h.PredictProba(test.Row(i, buf))
			pred[i] = math.Round(scores[i])
			testY[i] = test.Label(i)
		}
		acc := ml.Accuracy(testY, pred)
		pc, rc, f1 := ml.PrecisionRecallF1(testY, pred)
		auc := ml.AUC(testY, scores)
		cost := trainCost(train.NumRows(), train.NumFeatures(), 1.5)
		return []float64{acc, pc, rc, f1, auc, cost}, nil
	}
	measures := []fst.Measure{
		{Name: "pAcc", Bounds: skyline.DefaultBounds(), Normalize: fst.Inverted(measureFloor)},
		{Name: "pPc", Bounds: skyline.DefaultBounds(), Normalize: fst.Inverted(measureFloor)},
		{Name: "pRc", Bounds: skyline.DefaultBounds(), Normalize: fst.Inverted(measureFloor)},
		{Name: "pF1", Bounds: skyline.DefaultBounds(), Normalize: fst.Inverted(measureFloor)},
		{Name: "pAUC", Bounds: skyline.DefaultBounds(), Normalize: fst.Inverted(measureFloor)},
		{Name: "pTrain", Bounds: skyline.DefaultBounds(), Normalize: fst.Scaled(maxCost, measureFloor)},
	}
	enc := taskEncoder(lake)
	sp := newSpace(lake, enc)
	return &Workload{Name: "T4", Lake: lake, Space: sp, Model: taskModel("LGCmental", enc, eval), Measures: measures}
}

func invSquash() func(float64) float64 {
	inv := fst.Inverted(measureFloor)
	return func(raw float64) float64 { return inv(squash(raw)) }
}

func variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var m float64
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	var v float64
	for _, x := range xs {
		d := x - m
		v += d * d
	}
	return v / float64(len(xs))
}
