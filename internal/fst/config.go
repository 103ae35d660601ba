package fst

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/skyline"
	"repro/internal/table"
)

// Measure is one user-defined performance measure p ∈ P: a name, a
// desired range [p_l, p_u] ⊆ (0,1], and a normalizer mapping the model's
// raw metric value into the unified minimize-space.
type Measure struct {
	Name      string
	Bounds    skyline.Bounds
	Normalize func(raw float64) float64
}

// Inverted returns a measure normalizer for metrics to be maximized
// (accuracy, F1, ...): raw x in [0,1] maps to 1-x, floored at lo.
func Inverted(lo float64) func(float64) float64 {
	return func(raw float64) float64 {
		v := 1 - raw
		if v < lo {
			v = lo
		}
		if v > 1 {
			v = 1
		}
		return v
	}
}

// Scaled returns a normalizer for cost-like metrics: raw/max clipped to
// (lo, 1].
func Scaled(max, lo float64) func(float64) float64 {
	return func(raw float64) float64 {
		if max <= 0 {
			return 1
		}
		v := raw / max
		if v < lo {
			v = lo
		}
		if v > 1 {
			v = 1
		}
		return v
	}
}

// Identity returns a normalizer that clips raw to [lo, 1].
func Identity(lo float64) func(float64) float64 {
	return func(raw float64) float64 {
		if math.IsNaN(raw) {
			return 1
		}
		if raw < lo {
			return lo
		}
		if raw > 1 {
			return 1
		}
		return raw
	}
}

// defaultNormalize is the fallback normalizer of measures with no
// Normalize func, hoisted to package level so the valuation hot path
// does not rebuild the closure per measure per state.
var defaultNormalize = Identity(1e-3)

// Model is a fixed deterministic data science model M: D → R^d whose
// performance over a dataset is what MODis optimizes. Evaluate returns
// the raw metric vector aligned with the configured measures (e.g.
// accuracy, training cost), before normalization.
type Model interface {
	Name() string
	Evaluate(d *table.Table) ([]float64, error)
}

// Estimator predicts the normalized performance vector of a state from
// its features without running the model — the role of MO-GBM in the
// paper. Implementations live in internal/estimator.
type Estimator interface {
	// Estimate returns the predicted vector; ok=false when the estimator
	// is not yet trained well enough to be trusted.
	Estimate(features []float64) (v skyline.Vector, ok bool)
	// Observe records an exactly valuated test for future fitting.
	Observe(features []float64, v skyline.Vector)
}

// Config is the configuration C = (s_M, O, M, T, E) of a data discovery
// system run. One Config can serve concurrent runs: the test set is
// sharded and single-flighted, estimator access is serialized behind an
// internal mutex, and the per-run valuation counters live in each run's
// [ValuationStats] rather than here. Model.Evaluate must be safe for
// concurrent calls when runs valuate with parallelism > 1, and Measure
// normalizers must be pure functions.
type Config struct {
	Space    *Space
	Model    Model
	Measures []Measure
	// Tests is the memo every run of the configuration shares; a run's
	// own test set T is its Valuator's History.
	Tests *TestSet
	Est   Estimator
	// WarmupExact is the number of exact model valuations performed
	// before the surrogate estimator is trusted; 0 disables the
	// surrogate entirely (every state is valuated by model inference).
	WarmupExact int
	// ExactEvery forces an exact valuation every k-th state even after
	// warmup, feeding the estimator fresh observations. 0 = never.
	ExactEvery int

	// estMu serializes Est.Estimate/Observe: estimators are stateful
	// (online training, lazy refits) and not required to be thread-safe.
	estMu sync.Mutex

	boundsOnce sync.Once
	bounds     []skyline.Bounds

	// selfStats backs the convenience Config.Valuate path so one-off
	// valuations (reference states in examples, tests) still accumulate
	// surrogate warmup; search runs carry their own ValuationStats.
	selfStats ValuationStats
}

// Validate checks internal consistency.
func (c *Config) Validate() error {
	if c.Space == nil {
		return fmt.Errorf("fst: config requires a Space")
	}
	if c.Model == nil {
		return fmt.Errorf("fst: config requires a Model")
	}
	if len(c.Measures) == 0 {
		return fmt.Errorf("fst: config requires at least one measure")
	}
	if c.Tests == nil {
		c.Tests = NewTestSet()
	}
	return nil
}

// Bounds returns the measure bounds slice aligned with the vector,
// built once (concurrency-safe) and cached: Measures must not change
// after the first call.
func (c *Config) Bounds() []skyline.Bounds {
	c.boundsOnce.Do(func() {
		c.bounds = make([]skyline.Bounds, len(c.Measures))
		for i, m := range c.Measures {
			b := m.Bounds
			if b.Lower <= 0 {
				b.Lower = skyline.DefaultBounds().Lower
			}
			if b.Upper <= 0 {
				b.Upper = skyline.DefaultBounds().Upper
			}
			c.bounds[i] = b
		}
	})
	return c.bounds
}

// WithinBounds reports whether the vector satisfies every measure's
// user-specified range.
func (c *Config) WithinBounds(v skyline.Vector) bool {
	for i, b := range c.Bounds() {
		if i >= len(v) || v[i] > b.Upper {
			return false
		}
	}
	return true
}

// Valuate produces the normalized performance vector of a state bitmap,
// memoizing through Tests. It prefers the surrogate estimator after
// warmup and falls back to exact model inference. This is the
// one-off convenience path (counters accumulate in a config-internal
// ValuationStats); search runs valuate through a per-run [Valuator] so
// their budgets and reports stay independent. Both paths share one
// policy implementation: a transient valuator's single-state window.
func (c *Config) Valuate(bits Bitmap) (skyline.Vector, error) {
	v := &Valuator{cfg: c, Stats: &c.selfStats}
	return v.Valuate(context.Background(), bits)
}

// evaluateExact runs real model inference for the state, returning the
// normalized performance vector. Models implementing [RowsModel] are
// valuated straight off the state's selected-row view — the
// zero-materialization columnar fast path, available whenever the
// space has no UDFs — and every other model takes the reference path:
// materialize the child table, run Evaluate. Safe for concurrent calls
// (the worker-pool body): both paths share only the space's immutable
// row index and the model's frozen encoder state, and normalizers must
// be pure.
func (c *Config) evaluateExact(bits Bitmap) (skyline.Vector, error) {
	raw, err := c.rawMetrics(bits)
	if err != nil {
		return nil, fmt.Errorf("fst: valuate state: %w", err)
	}
	if len(raw) != len(c.Measures) {
		return nil, fmt.Errorf("fst: model returned %d metrics, want %d", len(raw), len(c.Measures))
	}
	v := make(skyline.Vector, len(raw))
	for i, m := range c.Measures {
		if m.Normalize != nil {
			v[i] = m.Normalize(raw[i])
		} else {
			v[i] = defaultNormalize(raw[i])
		}
	}
	return v, nil
}

// rawMetrics produces the model's raw metric vector for a state,
// preferring the columnar rows path when the model and the space
// support it. A per-call decline (handled=false) falls through to
// Materialize, which re-derives the removed-row union — acceptable
// because declines are cold: the built-in models decline only for
// states their space can never produce.
func (c *Config) rawMetrics(bits Bitmap) ([]float64, error) {
	if rm, isRows := c.Model.(RowsModel); isRows {
		if view, viewOK := c.Space.RowsFor(bits); viewOK {
			raw, handled, err := rm.EvaluateRows(view)
			// The view's scratch is pooled; models must not retain it
			// past EvaluateRows (see RowsModel).
			c.Space.ReleaseRows(view)
			if handled {
				return raw, err
			}
		}
	}
	return c.Model.Evaluate(c.Space.Materialize(bits))
}

// estimate consults the surrogate under the estimator mutex.
func (c *Config) estimate(feats []float64) (skyline.Vector, bool) {
	c.estMu.Lock()
	defer c.estMu.Unlock()
	return c.Est.Estimate(feats)
}

// observe feeds an exact result to the surrogate under the estimator
// mutex (no-op without an estimator).
func (c *Config) observe(feats []float64, v skyline.Vector) {
	if c.Est == nil {
		return
	}
	c.estMu.Lock()
	defer c.estMu.Unlock()
	c.Est.Observe(feats, v)
}

func clampVec(v skyline.Vector) skyline.Vector {
	for i := range v {
		if math.IsNaN(v[i]) || v[i] > 1 {
			v[i] = 1
		}
		if v[i] < 1e-3 {
			v[i] = 1e-3
		}
	}
	return v
}
