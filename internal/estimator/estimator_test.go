package estimator

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/ml"
	"repro/internal/skyline"
	"repro/internal/workpool"
)

func TestMOGBMNotReadyUntilMinObs(t *testing.T) {
	e := NewMOGBM()
	e.MinObs = 5
	for i := 0; i < 4; i++ {
		e.Observe([]float64{float64(i)}, skyline.Vector{0.5})
	}
	if _, ok := e.Estimate([]float64{1}); ok {
		t.Error("estimator should not answer before MinObs")
	}
	e.Observe([]float64{4}, skyline.Vector{0.5})
	if _, ok := e.Estimate([]float64{1}); !ok {
		t.Error("estimator should answer at MinObs")
	}
}

func TestMOGBMLearnsBitmapSignal(t *testing.T) {
	// Target vector is a simple function of the bitmap: p0 = mean(bits),
	// p1 = 1 - mean(bits). The surrogate should recover it.
	e := NewMOGBM()
	e.MinObs = 20
	rng := rand.New(rand.NewSource(1))
	dim := 10
	for i := 0; i < 120; i++ {
		feats := make([]float64, dim)
		s := 0.0
		for j := range feats {
			feats[j] = float64(rng.Intn(2))
			s += feats[j]
		}
		m := s / float64(dim)
		e.Observe(feats, skyline.Vector{m, 1 - m})
	}
	var errSum float64
	n := 40
	for i := 0; i < n; i++ {
		feats := make([]float64, dim)
		s := 0.0
		for j := range feats {
			feats[j] = float64(rng.Intn(2))
			s += feats[j]
		}
		m := s / float64(dim)
		pred, ok := e.Estimate(feats)
		if !ok {
			t.Fatal("estimator should be ready")
		}
		errSum += math.Abs(pred[0]-m) + math.Abs(pred[1]-(1-m))
	}
	avg := errSum / float64(2*n)
	if avg > 0.08 {
		t.Errorf("surrogate avg error = %v, want <= 0.08", avg)
	}
}

func TestMOGBMOutputDimension(t *testing.T) {
	e := NewMOGBM()
	e.MinObs = 2
	e.Observe([]float64{0}, skyline.Vector{0.1, 0.2, 0.3})
	e.Observe([]float64{1}, skyline.Vector{0.4, 0.5, 0.6})
	v, ok := e.Estimate([]float64{0.5})
	if !ok {
		t.Fatal("should be ready")
	}
	if len(v) != 3 {
		t.Errorf("output dim = %d, want 3", len(v))
	}
}

func TestMOGBMRefitPicksUpNewData(t *testing.T) {
	e := NewMOGBM()
	e.MinObs = 4
	e.RefitEvery = 4
	// First regime: constant 0.2.
	for i := 0; i < 4; i++ {
		e.Observe([]float64{float64(i)}, skyline.Vector{0.2})
	}
	v1, _ := e.Estimate([]float64{1})
	// Second regime: constant 0.8; after RefitEvery observations the
	// model must shift upward.
	for i := 0; i < 12; i++ {
		e.Observe([]float64{float64(i)}, skyline.Vector{0.8})
	}
	v2, _ := e.Estimate([]float64{1})
	if v2[0] <= v1[0] {
		t.Errorf("refit did not move estimate: %v -> %v", v1[0], v2[0])
	}
}

// The column-major history, refit through a worker pool, must reproduce
// the estimates of the row-major path exactly: one reference
// GBMRegressor per output, fit inline on a row-major ml.Dataset of the
// same observations and seeded as MultiOutputGBM seeds that output,
// predicts identically, after every refit and whatever the pool's
// worker count.
func TestMOGBMColumnarMatchesRowMajorFit(t *testing.T) {
	for _, procs := range []int{1, 4} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		pool := workpool.New(workpool.Options{Workers: procs})
		defer pool.Close()
		e := NewMOGBM()
		e.MinObs = 16
		e.queue = pool.NewQueue("test", 0)
		rng := rand.New(rand.NewSource(9))
		dim := 8
		var feats, targets [][]float64
		for round := 0; round < 3; round++ {
			for i := 0; i < 2*e.RefitEvery; i++ {
				f := make([]float64, dim)
				for j := range f {
					f[j] = float64(rng.Intn(2))
				}
				v := skyline.Vector{f[0] + f[1], f[2] * 0.5, 1 - f[3], f[4] - 0.3*f[5]}
				e.Observe(f, v)
				feats = append(feats, append([]float64(nil), f...))
				targets = append(targets, append([]float64(nil), v...))
			}
			ref := rowMajorMOGBM(e.Config, feats, targets)
			for i := 0; i < 20; i++ {
				f := make([]float64, dim)
				for j := range f {
					f[j] = float64(rng.Intn(2))
				}
				got, ok := e.Estimate(f)
				if !ok {
					t.Fatal("estimator should be ready")
				}
				if len(got) != len(ref) {
					t.Fatalf("estimate has %d outputs, want %d", len(got), len(ref))
				}
				for j, g := range ref {
					if want := g.Predict(f); got[j] != want {
						t.Fatalf("GOMAXPROCS %d, refit %d: estimate[%d] = %v, want %v", procs, round, j, got[j], want)
					}
				}
			}
		}
	}
}

// A shape-changing observation is dropped rather than misaligning the
// column history.
func TestMOGBMObserveShapeGuard(t *testing.T) {
	e := NewMOGBM()
	e.Observe([]float64{1, 2}, skyline.Vector{0.5})
	e.Observe([]float64{1, 2, 3}, skyline.Vector{0.5})
	e.Observe([]float64{1, 2}, skyline.Vector{0.5, 0.7})
	if n := e.NumObservations(); n != 1 {
		t.Fatalf("observations = %d, want 1 (strays dropped)", n)
	}
}

// rowMajorMOGBM fits one GBMRegressor per output of the row-major
// observations through ml.Dataset, output j seeded with cfg.Seed+7919j
// as MultiOutputGBM.FitColsTasks seeds it.
func rowMajorMOGBM(cfg ml.GBMConfig, feats, targets [][]float64) []*ml.GBMRegressor {
	out := make([]*ml.GBMRegressor, len(targets[0]))
	for j := range out {
		y := make([]float64, len(targets))
		for i, v := range targets {
			y[i] = v[j]
		}
		g := &ml.GBMRegressor{Config: cfg}
		g.Config.Seed = cfg.Seed + int64(j)*7919
		g.FitData(&ml.Dataset{X: feats, Y: y})
		out[j] = g
	}
	return out
}
