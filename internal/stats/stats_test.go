package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Mean(xs); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Variance(xs); got != 1.25 {
		t.Errorf("Variance = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 5, 0})
	if lo != -1 || hi != 5 {
		t.Errorf("MinMax = %v %v", lo, hi)
	}
}

func TestNormalizeRangeAndFloor(t *testing.T) {
	out := Normalize([]float64{0, 5, 10}, 0.01)
	if out[2] != 1 {
		t.Errorf("max should map to 1, got %v", out[2])
	}
	if out[0] != 0.01 {
		t.Errorf("min should floor to eps, got %v", out[0])
	}
	// Constant series maps to all-1.
	c := Normalize([]float64{7, 7, 7}, 0.01)
	for _, v := range c {
		if v != 1 {
			t.Errorf("constant series should map to 1, got %v", v)
		}
	}
}

func TestRanksWithTies(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("rank[%d] = %v, want %v", i, r[i], want[i])
		}
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); math.Abs(got-1) > 1e-12 {
		t.Errorf("Pearson = %v, want 1", got)
	}
	yneg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, yneg); math.Abs(got+1) > 1e-12 {
		t.Errorf("Pearson = %v, want -1", got)
	}
	if got := Pearson(x, []float64{3, 3, 3, 3, 3}); got != 0 {
		t.Errorf("constant series correlation = %v, want 0", got)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Spearman is 1 for any strictly monotone relation, even non-linear.
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 8, 27, 64, 125}
	if got := Spearman(x, y); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spearman = %v, want 1", got)
	}
}

func TestEuclidean(t *testing.T) {
	if got := Euclidean([]float64{0, 0}, []float64{3, 4}); got != 5 {
		t.Errorf("Euclidean = %v, want 5", got)
	}
}

func TestSpearmanBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i], y[i] = rng.Float64(), rng.Float64()
		}
		r := Spearman(x, y)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRanksArePermutationOfPositions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		r := Ranks(xs)
		// Sum of ranks must equal n(n+1)/2 even with ties.
		var s float64
		for _, v := range r {
			s += v
		}
		return math.Abs(s-float64(n*(n+1))/2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
