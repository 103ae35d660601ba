package ml

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randTestSeeds are the seeds the package's fits use — forest, boosting
// and split seeds, the seeds 7 + 7919·j, and the tree seeds task t2's
// forest (seed 1, twelve trees) draws at every row count up to 700 —
// and the edge seeds of Seed's reduction mod 2³¹−1.
func randTestSeeds() (named, trees []int64) {
	named = []int64{1, 7, 42, 0, -1, lehmerM, -lehmerM, 1 << 31, -(1 << 31), lehmerM - 1,
		math.MinInt64, math.MaxInt64, 89482311}
	for j := int64(0); j < 8; j++ {
		named = append(named, 7+7919*j)
	}
	for n := 1; n <= 700; n++ {
		r := rand.New(rand.NewSource(1))
		for range 12 {
			for range n {
				r.Intn(n)
			}
			trees = append(trees, r.Int63())
		}
	}
	return named, trees
}

// TestRandSourceMatchesMathRand holds randSource to math/rand's source.
// Every seed must give the first srcLen Uint64 draws of
// rand.NewSource: each draw overwrites one register word with its
// output, so after srcLen equal draws the two states are equal and stay
// equal. The named seeds also draw 10⁴ Int63s and the Rand-derived
// sequences the fits read. One randSource is reseeded throughout,
// as a scratch's source is.
func TestRandSourceMatchesMathRand(t *testing.T) {
	named, trees := randTestSeeds()
	var src randSource
	for _, seed := range append(slices.Clone(named), trees...) {
		want := rand.NewSource(seed).(rand.Source64)
		src.Seed(seed)
		for k := 0; k < srcLen; k++ {
			if g, w := src.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d is %#x, math/rand's %#x", seed, k, g, w)
			}
		}
	}
	for _, seed := range named {
		want := rand.NewSource(seed)
		src.Seed(seed)
		for k := 0; k < 10000; k++ {
			if g, w := src.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 draw %d is %d, math/rand's %d", seed, k, g, w)
			}
		}
		got, ref := newRand(seed), rand.New(rand.NewSource(seed))
		for n := 1; n <= 700; n += 37 {
			if g, w := got.Intn(n), ref.Intn(n); g != w {
				t.Fatalf("seed %d: Intn(%d) is %d, math/rand's %d", seed, n, g, w)
			}
			if g, w := got.Perm(n), ref.Perm(n); !slices.Equal(g, w) {
				t.Fatalf("seed %d: Perm(%d) is %v, math/rand's %v", seed, n, g, w)
			}
			g, w := make([]int, n), make([]int, n)
			for i := range g {
				g[i], w[i] = i, i
			}
			got.Shuffle(n, func(i, j int) { g[i], g[j] = g[j], g[i] })
			ref.Shuffle(n, func(i, j int) { w[i], w[j] = w[j], w[i] })
			if !slices.Equal(g, w) {
				t.Fatalf("seed %d: Shuffle(%d) is %v, math/rand's %v", seed, n, g, w)
			}
		}
		if g, w := got.Float64(), ref.Float64(); g != w {
			t.Fatalf("seed %d: Float64 is %v, math/rand's %v", seed, g, w)
		}
	}
}

// TestFeatureRNGReusesScratchSource checks that a tree's feature source
// lives on the scratch: reseeding it for the next tree allocates
// nothing and draws what a fresh math/rand source of that seed draws.
func TestFeatureRNGReusesScratchSource(t *testing.T) {
	ws := new(treeScratch)
	cfg := TreeConfig{MaxFeatures: 2}
	if featureRNG(cfg, 2, ws) != nil {
		t.Fatal("a tree that scans every feature got a source")
	}
	featureRNG(cfg, 5, ws)
	seed := int64(0)
	allocs := testing.AllocsPerRun(20, func() {
		seed++
		cfg.Seed = seed
		featureRNG(cfg, 5, ws)
	})
	if allocs != 0 {
		t.Fatalf("reseeding the scratch's source allocates %v times", allocs)
	}
	cfg.Seed = 99
	got, want := featureRNG(cfg, 5, ws), rand.New(rand.NewSource(99))
	for k := 0; k < 100; k++ {
		if g, w := got.Intn(5), want.Intn(5); g != w {
			t.Fatalf("draw %d is %d, math/rand's %d", k, g, w)
		}
	}
}
