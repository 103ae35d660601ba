// Package estimator provides the model-performance estimators E of the
// MODis framework. The default is MO-GBM: a multi-output gradient
// boosting surrogate that predicts the full performance vector of a
// state from its bitmap features in one call (Section 2, "Estimators"),
// trained online from the historical test set T.
//
// A refit fits one independent boosted model per output. Those fits run
// side by side on the process-global worker pool (workpool.Global,
// GOMAXPROCS workers), so concurrent refits — one per engine or serving
// shard — are bounded by the pool's worker count rather than by the
// number of engines. Each fit is deterministic and writes only its own
// model, so estimates are identical at any worker count. The serving
// layer's -workers pool and an engine's WithParallelism bound exact
// model inference only; refits never run on that pool.
package estimator

import (
	"repro/internal/ml"
	"repro/internal/skyline"
	"repro/internal/workpool"
)

// MOGBM is the multi-output gradient boosting surrogate.
type MOGBM struct {
	// MinObs is the minimum number of observations before estimates are
	// trusted (default 12).
	MinObs int
	// RefitEvery retrains the surrogate after this many new observations
	// (default 8).
	RefitEvery int
	// Config tunes the underlying boosted trees.
	Config ml.GBMConfig

	// The training history is stored column-major — featCols[f] and
	// tgtCols[j] each list one dimension over all n observations — which
	// is exactly the layout MultiOutputGBM.FitColsTasks trains on: a refit
	// reuses the accumulated columns as-is, with no per-fit transpose or
	// per-observation row copies. The feature width is fixed by the
	// space's bitmap, so every Observe appends one value per column.
	featCols [][]float64
	tgtCols  [][]float64
	n        int
	model    *ml.MultiOutputGBM
	sinceFit int
	// queue is the surrogate's lane into the process-global pool, on
	// which a refit's per-output fits run.
	queue *workpool.Queue
}

// NewMOGBM returns a surrogate with the defaults used in the paper's
// experiments (small, fast boosted trees).
func NewMOGBM() *MOGBM {
	return &MOGBM{
		MinObs:     12,
		RefitEvery: 8,
		Config: ml.GBMConfig{
			NumTrees:     40,
			MaxDepth:     3,
			LearningRate: 0.15,
			Seed:         7,
		},
	}
}

// Observe records an exactly valuated test for training.
func (e *MOGBM) Observe(features []float64, v skyline.Vector) {
	if e.featCols == nil {
		e.featCols = make([][]float64, len(features))
		e.tgtCols = make([][]float64, len(v))
	}
	if len(features) != len(e.featCols) || len(v) != len(e.tgtCols) {
		// A shape change would misalign the columns; one discovery
		// space never produces it, so drop the stray observation.
		return
	}
	for f, x := range features {
		e.featCols[f] = append(e.featCols[f], x)
	}
	for j, t := range v {
		e.tgtCols[j] = append(e.tgtCols[j], t)
	}
	e.n++
	e.sinceFit++
}

// NumObservations reports the training-set size.
func (e *MOGBM) NumObservations() int { return e.n }

// Estimate predicts the performance vector; ok=false until enough
// observations have accumulated. Refitting is lazy and incremental by
// observation count. A refit blocks until pool workers have run its
// per-output fits, so Estimate must not be called from a task running
// on workpool.Global: with every worker waiting the same way, nothing
// would run the fits.
func (e *MOGBM) Estimate(features []float64) (skyline.Vector, bool) {
	minObs := e.MinObs
	if minObs <= 0 {
		minObs = 12
	}
	if e.n < minObs {
		return nil, false
	}
	refit := e.RefitEvery
	if refit <= 0 {
		refit = 8
	}
	if e.model == nil || e.sinceFit >= refit {
		m := &ml.MultiOutputGBM{Config: e.Config}
		if e.queue == nil {
			e.queue = workpool.Global().NewQueue("estimator", 0)
		}
		e.queue.Run(m.FitColsTasks(e.n, e.featCols, e.tgtCols))
		e.model = m
		e.sinceFit = 0
	}
	pred := e.model.Predict(features)
	return skyline.Vector(pred), true
}
