package datagen

import (
	"fmt"
	"math"

	"repro/internal/fst"
	"repro/internal/ml"
	"repro/internal/skyline"
	"repro/internal/table"
)

// CustomConfig describes a user-supplied discovery task over arbitrary
// tables (the cmd/modis CLI path).
type CustomConfig struct {
	// Tables are the source datasets D.
	Tables []*table.Table
	// Target is the attribute the model predicts.
	Target string
	// ModelKind selects the learner: "forest", "gbm", "histgbm",
	// "linear", "logistic". Classification kinds require an integer or
	// string target.
	ModelKind string
	// Classes is the number of classes for classification kinds; 0
	// derives it from the target's active domain.
	Classes int
	// AdomK bounds the per-attribute literal count (default 8, max 30).
	AdomK int
	// Protected lists attributes that must survive every operator.
	Protected []string
}

// NewCustomWorkload assembles a workload from user tables: it joins them
// into a compressed universal table, derives the FST space, and wires a
// model with the standard {error, training-cost} measure pair.
func NewCustomWorkload(cfg CustomConfig) (*Workload, error) {
	if len(cfg.Tables) == 0 {
		return nil, fmt.Errorf("datagen: custom workload needs at least one table")
	}
	if cfg.AdomK <= 0 {
		cfg.AdomK = 8
	}
	if cfg.AdomK > 30 {
		cfg.AdomK = 30
	}
	u := table.Universal(cfg.Tables...)
	if !u.Schema.Has(cfg.Target) {
		return nil, fmt.Errorf("datagen: target %q not found in any table", cfg.Target)
	}
	for _, c := range u.Schema {
		if c.Name == cfg.Target || c.Kind == table.KindString {
			continue
		}
		u = table.Compress(u, c.Name, cfg.AdomK)
	}

	classification := false
	switch cfg.ModelKind {
	case "forest", "histgbm", "logistic":
		classification = true
	case "gbm", "linear", "":
	default:
		return nil, fmt.Errorf("datagen: unknown model kind %q", cfg.ModelKind)
	}
	classes := cfg.Classes
	if classification && classes <= 0 {
		classes = len(u.ActiveDomain(cfg.Target))
		if classes < 2 {
			return nil, fmt.Errorf("datagen: target %q has fewer than 2 classes", cfg.Target)
		}
	}

	// The encoder's frozen matrix doubles as the space's column source:
	// literal clustering and literal row bitmaps both derive from the
	// already-decoded floats.
	enc := ml.NewTableEncoder(u, cfg.Target)
	space := fst.NewSpace(u, cfg.Target, fst.SpaceConfig{
		MaxLiteralsPerAttr: cfg.AdomK,
		ProtectedAttrs:     cfg.Protected,
		Columns:            enc,
	})
	maxCost := trainCost(u.NumRows(), u.NumCols(), 1)

	kind := cfg.ModelKind
	eval := func(ds ml.Data) ([]float64, error) {
		if ds.NumRows() < minEvalRows || ds.NumFeatures() == 0 {
			return []float64{0, maxCost}, nil
		}
		train, test := ds.SplitData(0.3, 42)
		var predict func([]float64) float64
		switch kindOrDefault(kind) {
		case "forest":
			m := &ml.ForestClassifier{Config: ml.ForestConfig{NumTrees: 15, MaxDepth: 7, Seed: 1}, NumClass: classes}
			m.FitData(train)
			predict = m.Predict
		case "histgbm":
			m := &ml.HistGBMClassifier{Config: ml.HistGBMConfig{GBM: ml.GBMConfig{NumTrees: 30, MaxDepth: 3, Seed: 1}}}
			m.FitData(train)
			predict = m.Predict
		case "logistic":
			m := &ml.LogisticRegression{}
			m.FitData(train)
			predict = m.Predict
		case "linear":
			m := &ml.LinearRegression{}
			m.FitData(train)
			predict = m.Predict
		default: // gbm
			m := &ml.GBMRegressor{Config: ml.GBMConfig{NumTrees: 40, MaxDepth: 3, Seed: 1}}
			m.FitData(train)
			predict = m.Predict
		}
		pred, testY := predictAll(predict, test)
		var quality float64
		if classification {
			quality = ml.Accuracy(testY, pred)
		} else {
			quality = math.Max(0, ml.R2(testY, pred))
		}
		cost := trainCost(train.NumRows(), train.NumFeatures(), 1)
		return []float64{quality, cost}, nil
	}
	model := taskModel("custom-"+kindOrDefault(kind), enc, eval)

	qualityName := "pAcc"
	if !classification {
		qualityName = "pR2"
	}
	measures := []fst.Measure{
		{Name: qualityName, Bounds: skyline.DefaultBounds(), Normalize: fst.Inverted(measureFloor)},
		{Name: "pTrain", Bounds: skyline.DefaultBounds(), Normalize: fst.Scaled(maxCost, measureFloor)},
	}
	lake := &Lake{
		Config:    LakeConfig{Name: "custom", AdomK: cfg.AdomK},
		Tables:    cfg.Tables,
		Universal: u,
		Target:    cfg.Target,
	}
	return &Workload{Name: "custom", Lake: lake, Space: space, Model: model, Measures: measures}, nil
}

func kindOrDefault(k string) string {
	if k == "" {
		return "gbm"
	}
	return k
}
