package baselines

import (
	"math/rand"
	"sort"

	"repro/internal/datagen"
	"repro/internal/ml"
	"repro/internal/stats"
	"repro/internal/table"
)

// SkSFM mirrors scikit-learn's SelectFromModel: fit a tree-ensemble
// estimator on the universal table, compute impurity importances, and
// keep the features scoring at least the mean importance (the library's
// default threshold), projecting the universal table accordingly.
func SkSFM(w *datagen.Workload) (*Output, error) {
	u := w.Lake.Universal
	ds := ml.FromTable(u, w.Lake.Target)
	keep := []string{w.Lake.Target}
	if ds.NumRows() > 0 && ds.NumFeatures() > 0 {
		g := &ml.GBMRegressor{Config: ml.GBMConfig{NumTrees: 25, MaxDepth: 3, Seed: 3}}
		g.FitData(ds)
		imp := g.Importances(ds.NumFeatures())
		keep = append(keep, selectAboveMean(ds.Features, imp)...)
	}
	out := u.Project(dedup(keep)...)
	out.Name = "SkSFM"
	perf, err := EvalTable(w, out)
	if err != nil {
		return nil, err
	}
	return &Output{Method: "SkSFM", Table: out, Perf: perf}, nil
}

// H2O mirrors the H2O AutoML feature-selection module: fit a linear
// model over standardized features and keep the features whose absolute
// coefficient is at least the mean magnitude.
func H2O(w *datagen.Workload) (*Output, error) {
	u := w.Lake.Universal
	ds := ml.FromTable(u, w.Lake.Target)
	keep := []string{w.Lake.Target}
	if ds.NumRows() > 0 && ds.NumFeatures() > 0 {
		lr := &ml.LogisticRegression{Iterations: 120}
		// For regression targets, binarize around the median so the
		// linear filter still ranks features.
		y := binarizeMedian(ds.Y)
		lr.FitData(&ml.Dataset{X: ds.X, Y: y})
		keep = append(keep, selectAboveMean(ds.Features, lr.AbsWeights())...)
	}
	out := u.Project(dedup(keep)...)
	out.Name = "H2O"
	perf, err := EvalTable(w, out)
	if err != nil {
		return nil, err
	}
	return &Output{Method: "H2O", Table: out, Perf: perf}, nil
}

// HydraGAN mimics the generative augmentation comparator [DeSmet & Cook
// 2024]: it synthesizes rows by sampling each column's marginal
// distribution (Gaussian for numerics, empirical frequencies for
// categoricals) under a fixed schema. Synthetic rows lack the verified
// cross-feature structure of discovered data, the limitation the paper
// reports.
func HydraGAN(w *datagen.Workload, numRows int, seed int64) (*Output, error) {
	u := w.Lake.Universal
	if numRows <= 0 {
		numRows = u.NumRows()
	}
	rng := rand.New(rand.NewSource(seed))
	out := table.New("HydraGAN", u.Schema)
	for r := 0; r < numRows; r++ {
		row := make(table.Row, len(u.Schema))
		for c, col := range u.Schema {
			vals := u.Column(col.Name)
			if len(vals) == 0 {
				continue
			}
			if col.Kind == table.KindString {
				row[c] = vals[rng.Intn(len(vals))]
				continue
			}
			var xs []float64
			for _, v := range vals {
				if !v.IsNull() {
					xs = append(xs, v.AsFloat())
				}
			}
			if len(xs) == 0 {
				continue
			}
			mu := stats.Mean(xs)
			sd := stats.StdDev(xs)
			x := mu + sd*rng.NormFloat64()
			if col.Kind == table.KindInt {
				row[c] = table.Int(int64(x))
			} else {
				row[c] = table.Float(x)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	perf, err := EvalTable(w, out)
	if err != nil {
		return nil, err
	}
	return &Output{Method: "HydraGAN", Table: out, Perf: perf}, nil
}

func selectAboveMean(names []string, scores []float64) []string {
	if len(scores) == 0 {
		return nil
	}
	m := stats.Mean(scores)
	var keep []string
	for i, s := range scores {
		if s >= m && i < len(names) {
			keep = append(keep, names[i])
		}
	}
	if len(keep) == 0 && len(names) > 0 {
		keep = append(keep, names[0])
	}
	return keep
}

func binarizeMedian(y []float64) []float64 {
	sorted := append([]float64(nil), y...)
	sort.Float64s(sorted)
	med := sorted[len(sorted)/2]
	out := make([]float64, len(y))
	for i, v := range y {
		if v > med {
			out[i] = 1
		}
	}
	return out
}

func dedup(names []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}
