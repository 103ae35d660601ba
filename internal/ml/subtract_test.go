package ml

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// raceEnabled is set when the tests run under the race detector
// (race_test.go).
var raceEnabled bool

// refHistSplit is the leveled regression scan as it was before
// histogram subtraction: a fresh level histogram of feature f over the
// node's rows seg, then the ascending scan of its non-empty levels.
func refHistSplit(fr *frame, f int, seg []int32, minLeaf int, ws *treeScratch) (gain, thresh float64, ok bool) {
	lv, vals := fr.lv[f], fr.lvals[f]
	yq := ws.yq[:len(lv)]
	var sum [maxLevels]int64
	var cnt [maxLevels]int
	for _, p := range seg {
		l := lv[p] & (maxLevels - 1)
		sum[l] += yq[p]
		cnt[l]++
	}
	var t int64
	for _, s := range sum {
		t += s
	}
	n := len(seg)
	var l int64
	nl := 0
	best := 0.0
	prev := -1
	for lev := range vals {
		if cnt[lev] == 0 {
			continue
		}
		if prev >= 0 && nl >= minLeaf && n-nl >= minLeaf {
			if g := splitScore(l, t, nl, n); g > best {
				best = g
				thresh = (vals[prev] + vals[lev]) / 2
			}
		}
		l += sum[lev]
		nl += cnt[lev]
		prev = lev
	}
	if best <= 0 {
		return 0, 0, false
	}
	return ws.varianceGain(best, n), thresh, true
}

// refGrow grows a leveled regression tree over the rows seg as growFrame
// does, drawing features from rng in the same node order, but with a
// fresh histogram per feature at every node (refHistSplit) and fresh
// row slices per child. ws holds the quantised targets.
func refGrow(fr *frame, seg []int32, depth int, cfg TreeConfig, rng *rand.Rand, ws *treeScratch) *treeNode {
	node := &treeNode{nSamples: len(seg)}
	leaf := func() *treeNode {
		node.leaf = true
		node.value = meanAt(fr.y, seg)
		return node
	}
	if depth >= cfg.MaxDepth || len(seg) < 2*cfg.MinLeaf || pure(fr.y, seg) {
		return leaf()
	}
	feats := make([]int, fr.nf)
	for i := range feats {
		feats[i] = i
	}
	if cfg.MaxFeatures > 0 && cfg.MaxFeatures < fr.nf {
		rng.Shuffle(len(feats), func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		feats = feats[:cfg.MaxFeatures]
		sort.Ints(feats)
	}
	bestGain, bestFeat, bestThresh := 0.0, -1, 0.0
	for _, f := range feats {
		gain, thresh, ok := refHistSplit(fr, f, seg, cfg.MinLeaf, ws)
		if ok && gain > bestGain+1e-12 {
			bestGain, bestFeat, bestThresh = gain, f, thresh
		}
	}
	if bestFeat < 0 {
		return leaf()
	}
	var left, right []int32
	lv, vals := fr.lv[bestFeat], fr.lvals[bestFeat]
	for _, p := range seg {
		if vals[lv[p]] <= bestThresh {
			left = append(left, p)
		} else {
			right = append(right, p)
		}
	}
	if len(left) < cfg.MinLeaf || len(right) < cfg.MinLeaf {
		return leaf()
	}
	node.feature, node.thresh = bestFeat, bestThresh
	node.left = refGrow(fr, left, depth+1, cfg, rng, ws)
	node.right = refGrow(fr, right, depth+1, cfg, rng, ws)
	return node
}

// diffTree reports the first node, by path from the root, where two
// trees differ in shape, row count, split feature, threshold bits or
// leaf value bits.
func diffTree(a, b *treeNode, path string) error {
	switch {
	case a.leaf != b.leaf || a.nSamples != b.nSamples:
		return fmt.Errorf("node %q: leaf %v/%v, rows %d/%d", path, a.leaf, b.leaf, a.nSamples, b.nSamples)
	case a.leaf && math.Float64bits(a.value) != math.Float64bits(b.value):
		return fmt.Errorf("leaf %q: value %v, reference %v", path, a.value, b.value)
	case a.leaf:
		return nil
	case a.feature != b.feature || math.Float64bits(a.thresh) != math.Float64bits(b.thresh):
		return fmt.Errorf("node %q: split feature %d at %v, reference feature %d at %v", path, a.feature, a.thresh, b.feature, b.thresh)
	}
	if err := diffTree(a.left, b.left, path+"L"); err != nil {
		return err
	}
	return diffTree(a.right, b.right, path+"R")
}

// countDerived counts, by side, the splitting nodes whose histogram
// block growth derives by subtraction: the larger child of a split, the
// right one on a tie.
func countDerived(n *treeNode, left, right *int) {
	if n.leaf {
		return
	}
	switch {
	case n.left.nSamples > n.right.nSamples && !n.left.leaf:
		*left++
	case n.left.nSamples <= n.right.nSamples && !n.right.leaf:
		*right++
	}
	countDerived(n.left, left, right)
	countDerived(n.right, left, right)
}

// TestSubtractionMatchesFreshHistograms grows each leveled regression
// tree twice — through the production path, whose nodes scan histogram
// blocks built by subtraction, and through refGrow, which builds a fresh
// histogram per feature at every node — and requires the same tree node
// for node: split feature, threshold bits, row counts and leaf value
// bits. Trials cover 1 to 16 levels per feature, MinLeaf 1 to 7,
// MaxDepth 1 to 8, very unbalanced level frequencies (level l of a
// skewed feature holds about 2^-(l+1) of the rows), 0/1 frames from
// frameFromCols, ±1e16 targets that cancel beside small ones, and trees
// that sample features. Every other production fit starts on a fresh
// scratch; the others share one, so blocks left by a larger or deeper
// earlier tree are in the slots.
func TestSubtractionMatchesFreshHistograms(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	ws, refWS := new(treeScratch), new(treeScratch)
	var derivedL, derivedR, sampled int
	for trial := 0; trial < 1500; trial++ {
		nf := 1 + rng.Intn(5)
		n := 1 + rng.Intn(400)
		cfg := TreeConfig{MaxDepth: 1 + rng.Intn(8), MinLeaf: 1 + rng.Intn(7), Seed: rng.Int63()}
		if trial%4 == 3 && nf > 1 {
			cfg.MaxFeatures = 1 + rng.Intn(nf-1)
		}
		huge := []float64{1e16, 1e3}[trial%2]
		var fr *frame
		if trial%3 == 2 {
			// A 0/1 frame: columns of 0 and 1, some almost constant.
			cols := make([][]float64, nf)
			y := regressionTargets(rng, n, 1, huge, false)
			for f := range cols {
				cols[f] = make([]float64, n)
				ones := rng.Intn(4)
				for i := range cols[f] {
					if rng.Intn(1<<ones) == 0 {
						cols[f][i] = 1
						y[i] += float64(f + 1)
					}
				}
			}
			fr = frameFromCols(cols, y, ws)
		} else {
			levels := make([]int, nf)
			for f := range levels {
				levels[f] = 1 + rng.Intn(maxLevels)
			}
			X, _ := levelRows(rng, n, levels, 2, false)
			y := regressionTargets(rng, n, levels[0], huge, false)
			skewed := trial%3 == 1
			for i := range X {
				for f, L := range levels {
					if skewed {
						l := bits.TrailingZeros64(uint64(rng.Int63())|1<<62) % L
						X[i][f] = float64(l)
					}
					y[i] += X[i][f] * float64(f%3)
				}
			}
			fr = frameFromRows(X, y, ws)
			fr.readLevels()
		}
		if !fr.leveled {
			t.Fatalf("trial %d: frame not leveled", trial)
		}
		pws := ws
		if trial%2 == 0 {
			pws = new(treeScratch)
		}
		got := &TreeRegressor{Config: cfg}
		got.fitFrame(fr, pws)
		if !refWS.quantize(fr.y) {
			t.Fatalf("trial %d: finite targets not quantised", trial)
		}
		seg := make([]int32, fr.n)
		for i := range seg {
			seg[i] = int32(i)
		}
		want := refGrow(fr, seg, 0, cfg, featureRNG(cfg, fr.nf, refWS), refWS)
		if err := diffTree(got.root, want, ""); err != nil {
			t.Fatalf("trial %d (n %d, nf %d, %+v): %v", trial, n, nf, cfg, err)
		}
		if cfg.samples(fr.nf) {
			sampled++
		} else {
			countDerived(got.root, &derivedL, &derivedR)
		}
		ws.putFrame(fr)
	}
	if derivedL < 200 || derivedR < 200 || sampled < 50 {
		t.Fatalf("weak coverage: %d left and %d right scans of derived blocks, %d sampling trees", derivedL, derivedR, sampled)
	}
	t.Logf("%d left and %d right scans of derived blocks, %d sampling trees", derivedL, derivedR, sampled)
}

// TestLeveledFitAllocs is the allocation contract of leveled regression
// growth with the pooled scratch warm: a t1-shaped GBMRegressor.FitData
// (BenchmarkGBMFitLeveled) and a surrogate refit through FitColsTasks
// (BenchmarkSurrogateRefit) allocate no more than before histogram
// subtraction (39 and 163 per fit), and once a fit has sized the
// histogram blocks, laying them out, filling and subtracting them
// allocate nothing.
func TestLeveledFitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	v := leveledView(600, 10, 4)
	cols, targets := surrogateObservations(60, 24)
	for _, c := range []struct {
		name string
		max  float64
		fit  func()
	}{
		{"GBMRegressor.FitData", 39, func() {
			(&GBMRegressor{Config: GBMConfig{NumTrees: 30, MaxDepth: 3, Seed: 1}}).FitData(v)
		}},
		{"MultiOutputGBM.FitColsTasks", 163, func() {
			fitCols(&MultiOutputGBM{Config: GBMConfig{NumTrees: 40, MaxDepth: 3, LearningRate: 0.15, Seed: 7}}, 60, cols, targets)
		}},
	} {
		c.fit()
		if got := testing.AllocsPerRun(50, c.fit); got > c.max {
			t.Errorf("%s: %v allocations per fit, want at most %v", c.name, got, c.max)
		}
	}

	ws := new(treeScratch)
	fr := frameFromCols(cols, targets[0], ws)
	tree := &TreeRegressor{Config: TreeConfig{MaxDepth: 6, MinLeaf: 1}}
	tree.fitFrame(fr, ws)
	size, first := len(ws.hsum), &ws.hsum[0]
	for range 10 {
		tree.fitFrame(fr, ws)
	}
	if len(ws.hsum) != size || &ws.hsum[0] != first {
		t.Fatalf("refits regrew the histogram blocks: %d entries, then %d", size, len(ws.hsum))
	}
	k := size / ws.hstride
	if k < 5 {
		t.Fatalf("the first fit used only %d histogram blocks", k)
	}
	seg := make([]int32, fr.n)
	for i := range seg {
		seg[i] = int32(i)
	}
	feats := make([]int, fr.nf)
	for f := range feats {
		feats[f] = f
	}
	got := testing.AllocsPerRun(50, func() {
		ws.prepareHist(fr)
		ws.fillHist(fr, feats, seg, 0)
		ws.fillHist(fr, feats, seg[:fr.n/3], k-1)
		ws.subHist(k-2, 0, k-1)
	})
	if got != 0 {
		t.Fatalf("histogram blocks allocate %v times after the first fit", got)
	}
}
