package fst

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/skyline"
	"repro/internal/table"
)

// countingModel reports the dataset size as its two raw metrics and
// counts evaluations, for memoization tests. The count is atomic:
// pooled valuation evaluates from several workers at once.
type countingModel struct{ calls atomic.Int64 }

func (m *countingModel) Name() string { return "counting" }

func (m *countingModel) Evaluate(d *table.Table) ([]float64, error) {
	m.calls.Add(1)
	rows := float64(d.NumRows()) / 100
	cols := float64(d.NumCols()) / 100
	return []float64{rows, cols}, nil
}

func testConfig(m Model) *Config {
	return &Config{
		Space: testSpace(),
		Model: m,
		Measures: []Measure{
			{Name: "rows", Normalize: Identity(1e-3)},
			{Name: "cols", Normalize: Identity(1e-3)},
		},
	}
}

func TestValidateRequirements(t *testing.T) {
	var c Config
	if err := c.Validate(); err == nil {
		t.Error("empty config must fail validation")
	}
	c.Space = testSpace()
	if err := c.Validate(); err == nil {
		t.Error("config without model must fail")
	}
	c.Model = &countingModel{}
	if err := c.Validate(); err == nil {
		t.Error("config without measures must fail")
	}
	c.Measures = []Measure{{Name: "m"}}
	if err := c.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if c.Tests == nil {
		t.Error("Validate should initialize the test set")
	}
}

func TestValuateMemoizes(t *testing.T) {
	m := &countingModel{}
	cfg := testConfig(m)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	val := cfg.NewValuator(nil)
	bits := cfg.Space.FullBitmap()
	v1, err := val.Valuate(context.Background(), bits)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := val.Valuate(context.Background(), bits)
	if err != nil {
		t.Fatal(err)
	}
	if m.calls.Load() != 1 {
		t.Errorf("model calls = %d, want 1 (memoized)", m.calls.Load())
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Error("memoized vector mismatch")
		}
	}
	if val.Stats.Valuations() != 1 {
		t.Errorf("valuations = %d, want 1 (repeat loads from T)", val.Stats.Valuations())
	}
}

func TestValuateNormalizes(t *testing.T) {
	m := &countingModel{}
	cfg := testConfig(m)
	cfg.Validate()
	v, err := cfg.Valuate(cfg.Space.FullBitmap())
	if err != nil {
		t.Fatal(err)
	}
	// 20 rows -> 0.2, 4 cols -> 0.04.
	if v[0] != 0.2 || v[1] != 0.04 {
		t.Errorf("normalized vector = %v", v)
	}
}

type failingModel struct{}

func (failingModel) Name() string                             { return "fail" }
func (failingModel) Evaluate(*table.Table) ([]float64, error) { return nil, errors.New("boom") }

func TestValuatePropagatesModelError(t *testing.T) {
	cfg := testConfig(failingModel{})
	cfg.Validate()
	if _, err := cfg.Valuate(cfg.Space.FullBitmap()); err == nil {
		t.Error("model error must propagate")
	}
}

type wrongArityModel struct{}

func (wrongArityModel) Name() string { return "arity" }
func (wrongArityModel) Evaluate(*table.Table) ([]float64, error) {
	return []float64{1}, nil
}

func TestValuateArityCheck(t *testing.T) {
	cfg := testConfig(wrongArityModel{})
	cfg.Validate()
	if _, err := cfg.Valuate(cfg.Space.FullBitmap()); err == nil {
		t.Error("metric arity mismatch must error")
	}
}

// stubEstimator always returns a fixed vector once trusted.
type stubEstimator struct {
	observed int
	answer   skyline.Vector
}

func (s *stubEstimator) Estimate([]float64) (skyline.Vector, bool) {
	if s.observed < 1 {
		return nil, false
	}
	return s.answer.Clone(), true
}
func (s *stubEstimator) Observe([]float64, skyline.Vector) { s.observed++ }

func TestValuateUsesSurrogateAfterWarmup(t *testing.T) {
	m := &countingModel{}
	cfg := testConfig(m)
	cfg.Est = &stubEstimator{answer: skyline.Vector{0.5, 0.5}}
	cfg.WarmupExact = 1
	cfg.Validate()

	// First valuation: warmup, exact.
	val := cfg.NewValuator(nil)
	b1 := cfg.Space.FullBitmap()
	if _, err := val.Valuate(context.Background(), b1); err != nil {
		t.Fatal(err)
	}
	if val.Stats.ExactCalls() != 1 {
		t.Fatalf("exact calls = %d, want 1", val.Stats.ExactCalls())
	}
	// Second distinct state: surrogate should answer.
	b2 := b1.Clone()
	b2.Clear(0)
	v, err := val.Valuate(context.Background(), b2)
	if err != nil {
		t.Fatal(err)
	}
	if m.calls.Load() != 1 {
		t.Errorf("model calls = %d, want 1 (surrogate served the 2nd)", m.calls.Load())
	}
	if v[0] != 0.5 {
		t.Errorf("surrogate answer not used: %v", v)
	}
}

// TestExactEveryPhase pins the phase of the ExactEvery audit: with an
// estimator that always answers, two warm-up valuations and an audit
// every fourth, valuations 1 and 2 (warm-up), then 4, 8 and 12 run the
// model, counting valuations from 1.
func TestExactEveryPhase(t *testing.T) {
	m := &countingModel{}
	cfg := testConfig(m)
	cfg.Est = &stubEstimator{answer: skyline.Vector{0.5, 0.5}}
	cfg.WarmupExact = 2
	cfg.ExactEvery = 4
	cfg.Validate()
	val := cfg.NewValuator(nil)
	full := cfg.Space.FullBitmap()
	var exactAt []int
	for k := 1; k <= 12; k++ {
		// State k clears the entries set in the binary form of k-1, so
		// all twelve states are distinct.
		b := full.Clone()
		for i := 0; i < b.Len(); i++ {
			if (k-1)>>i&1 == 1 {
				b.Clear(i)
			}
		}
		before := m.calls.Load()
		if _, err := val.Valuate(context.Background(), b); err != nil {
			t.Fatal(err)
		}
		if m.calls.Load() != before {
			exactAt = append(exactAt, k)
		}
	}
	if n := val.Stats.Valuations(); n != 12 {
		t.Fatalf("valuations = %d, want 12 distinct states", n)
	}
	if want := []int{1, 2, 4, 8, 12}; fmt.Sprint(exactAt) != fmt.Sprint(want) {
		t.Errorf("model ran at valuations %v, want %v", exactAt, want)
	}
}

func TestBoundsAndWithinBounds(t *testing.T) {
	cfg := testConfig(&countingModel{})
	cfg.Measures[0].Bounds = skyline.Bounds{Lower: 0.1, Upper: 0.5}
	cfg.Validate()
	bs := cfg.Bounds()
	if bs[0].Upper != 0.5 {
		t.Error("explicit bounds should pass through")
	}
	if bs[1].Upper != 1 {
		t.Error("unset bounds should default")
	}
	if !cfg.WithinBounds(skyline.Vector{0.3, 0.9}) {
		t.Error("vector within bounds rejected")
	}
	if cfg.WithinBounds(skyline.Vector{0.6, 0.9}) {
		t.Error("vector above upper bound accepted")
	}
}

func TestMeasureNormalizers(t *testing.T) {
	inv := Inverted(0.01)
	if inv(1) != 0.01 {
		t.Error("Inverted(1) should floor")
	}
	if inv(0) != 1 {
		t.Error("Inverted(0) = 1")
	}
	sc := Scaled(10, 0.01)
	if sc(5) != 0.5 {
		t.Error("Scaled mid")
	}
	if sc(100) != 1 {
		t.Error("Scaled clips at 1")
	}
	id := Identity(0.01)
	if id(0.5) != 0.5 || id(-1) != 0.01 || id(2) != 1 {
		t.Error("Identity clipping")
	}
}

func TestTestSetColumns(t *testing.T) {
	ts := NewTestSet()
	ts.Put(&Test{Key: 1, Perf: skyline.Vector{0.1, 0.2}})
	ts.Put(&Test{Key: 2, Perf: skyline.Vector{0.3, 0.4}})
	ts.Put(&Test{Key: 1, Perf: skyline.Vector{9, 9}}) // dup ignored
	if ts.Len() != 2 {
		t.Fatalf("len = %d, want 2", ts.Len())
	}
}
