package ml

import (
	"math/rand"
	"testing"
)

// discriminativeData: feature 0 separates classes, feature 1 is noise.
func discriminativeData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		c := float64(rng.Intn(2))
		y[i] = c
		X[i] = []float64{c*5 + rng.NormFloat64()*0.2, rng.Float64()}
	}
	return X, y
}

func TestFisherScoreRanksInformativeFirst(t *testing.T) {
	X, y := discriminativeData(300, 1)
	fs := FisherScoreData(dsOf(X, y), y)
	if len(fs) != 2 {
		t.Fatalf("scores = %v", fs)
	}
	if fs[0] <= fs[1] {
		t.Errorf("informative feature score %v should exceed noise %v", fs[0], fs[1])
	}
	if fs[0] < 10 {
		t.Errorf("well-separated Fisher score = %v, expected large", fs[0])
	}
}

func TestFisherScoreEmpty(t *testing.T) {
	if FisherScoreData(dsOf(nil, nil), nil) != nil {
		t.Error("empty input should yield nil")
	}
}

func TestMutualInformationRanksInformativeFirst(t *testing.T) {
	X, y := discriminativeData(300, 2)
	mi := MutualInformationData(dsOf(X, y), y, 8)
	if mi[0] <= mi[1] {
		t.Errorf("informative MI %v should exceed noise MI %v", mi[0], mi[1])
	}
}

func TestMutualInformationNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X := make([][]float64, 100)
	y := make([]float64, 100)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = rng.Float64()
	}
	for _, v := range MutualInformationData(dsOf(X, y), y, 6) {
		if v < 0 {
			t.Fatalf("MI must be non-negative, got %v", v)
		}
	}
}

func TestDiscretizeFewLevels(t *testing.T) {
	xs := []float64{1, 1, 2, 2}
	d := new(miScratch).discretize(xs, 10, nil)
	if d[0] != d[1] || d[2] != d[3] || d[0] == d[2] {
		t.Errorf("level discretization = %v", d)
	}
}

func TestDiscretizeEqualFrequency(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	d := new(miScratch).discretize(xs, 4, nil)
	counts := map[int]int{}
	for _, b := range d {
		counts[b]++
	}
	if len(counts) != 4 {
		t.Fatalf("bins = %d, want 4", len(counts))
	}
	for b, c := range counts {
		if c < 24 || c > 26 {
			t.Errorf("bin %d count = %d, want 25±1", b, c)
		}
	}
}
