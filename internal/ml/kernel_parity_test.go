package ml

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The reference kernels below are the straightforward versions the
// tree and feature-score kernels replaced: a branching stable
// partition, a map-based discretizer and a map-based mutual
// information with sorted keys. The new kernels must agree with them
// bit for bit.

func refStablePartition(a []int32, lo, hi, k int, left []bool, tmp []int32) {
	n := hi - lo
	li, ri := 0, k
	for _, p := range a[lo:hi] {
		if left[p] {
			tmp[li] = p
			li++
		} else {
			tmp[ri] = p
			ri++
		}
	}
	copy(a[lo:hi], tmp[:n])
}

func refDiscretize(xs []float64, bins int) []int {
	distinct := map[float64]bool{}
	for _, x := range xs {
		distinct[x] = true
	}
	if len(distinct) <= bins {
		levels := make([]float64, 0, len(distinct))
		for x := range distinct {
			levels = append(levels, x)
		}
		sort.Float64s(levels)
		lvl := map[float64]int{}
		for i, x := range levels {
			lvl[x] = i
		}
		out := make([]int, len(xs))
		for i, x := range xs {
			out[i] = lvl[x]
		}
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	edges := make([]float64, 0, bins-1)
	for b := 1; b < bins; b++ {
		e := sorted[b*len(sorted)/bins]
		if len(edges) == 0 || e != edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = sort.SearchFloat64s(edges, x)
	}
	return out
}

func refDiscreteMI(a, b []int) float64 {
	n := float64(len(a))
	if n == 0 {
		return 0
	}
	joint := map[[2]int]float64{}
	pa := map[int]float64{}
	pb := map[int]float64{}
	for i := range a {
		joint[[2]int{a[i], b[i]}]++
		pa[a[i]]++
		pb[b[i]]++
	}
	keys := make([][2]int, 0, len(joint))
	for k := range joint {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var mi float64
	for _, k := range keys {
		pxy := joint[k] / n
		px := pa[k[0]] / n
		py := pb[k[1]] / n
		mi += pxy * math.Log(pxy/(px*py))
	}
	if mi < 0 {
		mi = 0
	}
	return mi
}

func TestStablePartitionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(64)
		a := make([]int32, n)
		for i, p := range rng.Perm(n) {
			a[i] = int32(p)
		}
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		leftB := make([]bool, n)
		leftU := make([]uint8, n)
		pLeft := rng.Float64() // includes all-left and all-right segments
		k := 0
		for _, p := range a[lo:hi] {
			if rng.Float64() < pLeft {
				leftB[p], leftU[p] = true, 1
				k++
			}
		}
		want := append([]int32(nil), a...)
		refStablePartition(want, lo, hi, k, leftB, make([]int32, n))
		got := append([]int32(nil), a...)
		stablePartition(got[lo:hi], k, leftU, make([]int32, n), make([]int32, n))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

// parityColumns yields the discretizer's edge cases: ties, at most
// bins distinct levels, constant columns, ±0, NaN, and plain
// continuous data.
func parityColumns(rng *rand.Rand, bins int) [][]float64 {
	negZero := math.Copysign(0, -1)
	var cols [][]float64
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(120)
		c := make([]float64, n)
		switch trial % 8 {
		case 0: // continuous
			for i := range c {
				c[i] = rng.NormFloat64()
			}
		case 1: // heavy ties, more levels than bins
			for i := range c {
				c[i] = float64(rng.Intn(3 * bins))
			}
		case 2: // at most bins levels
			for i := range c {
				c[i] = float64(rng.Intn(bins)) - 2
			}
		case 3: // exactly bins+1 levels
			for i := range c {
				c[i] = float64(i % (bins + 1))
			}
		case 4: // constant
			v := rng.NormFloat64()
			for i := range c {
				c[i] = v
			}
		case 5: // ±0 among a few levels
			zs := []float64{negZero, 0, 1, -1}
			for i := range c {
				c[i] = zs[rng.Intn(len(zs))]
			}
		case 6: // ±0 among continuous values
			for i := range c {
				switch rng.Intn(3) {
				case 0:
					c[i] = negZero
				case 1:
					c[i] = 0
				default:
					c[i] = rng.NormFloat64()
				}
			}
		case 7: // NaN among a few levels
			for i := range c {
				if rng.Intn(6) == 0 {
					c[i] = math.NaN()
				} else {
					c[i] = float64(rng.Intn(3))
				}
			}
		}
		cols = append(cols, c)
	}
	return cols
}

func TestDiscretizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := new(miScratch)
	var out []int
	for _, bins := range []int{2, 4, 8, 10} {
		for ci, c := range parityColumns(rng, bins) {
			want := refDiscretize(c, bins)
			out = s.discretize(c, bins, out)
			if len(out) != len(want) {
				t.Fatalf("bins %d col %d: len %d, want %d", bins, ci, len(out), len(want))
			}
			for i := range want {
				if out[i] != want[i] {
					t.Fatalf("bins %d col %d row %d (%v): id %d, want %d", bins, ci, i, c[i], out[i], want[i])
				}
			}
		}
	}
}

func TestDiscreteMIMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := new(miScratch)
	for _, bins := range []int{2, 4, 8} {
		cols := parityColumns(rng, bins)
		for ci, c := range cols {
			// Pair each column with a same-length column of another kind.
			y := make([]float64, len(c))
			for i := range y {
				y[i] = c[(i*7+3)%len(c)] + float64(rng.Intn(2))
			}
			a, b := refDiscretize(c, bins), refDiscretize(y, bins)
			want := refDiscreteMI(a, b)
			got := s.discreteMI(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("bins %d col %d: MI %v, want %v", bins, ci, got, want)
			}
		}
	}
	if got := s.discreteMI(nil, nil); got != 0 {
		t.Fatalf("empty MI = %v", got)
	}
}

// descendCols walks the tree for example i of a column-major matrix,
// the reference walk leaf values are checked against.
func descendCols(n *treeNode, cols [][]float64, i int) *treeNode {
	for !n.leaf {
		if cols[n.feature][i] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

// predictCols returns the regression output for example i of a
// column-major matrix.
func predictCols(root *treeNode, cols [][]float64, i int) float64 {
	return descendCols(root, cols, i).value
}

// leafValues grows a regression tree on fr with leaf recording on and
// returns the tree and each row's recorded leaf value.
func leafValues(fr *frame, cfg TreeConfig, ws *treeScratch) (*TreeRegressor, []float64) {
	leafv := make([]float64, fr.n)
	for i := range leafv {
		leafv[i] = math.NaN() // every row must be overwritten
	}
	ws.leafv = leafv
	tree := &TreeRegressor{Config: cfg}
	tree.fitFrame(fr, ws)
	ws.leafv = nil
	return tree, leafv
}

func checkLeafValues(t *testing.T, name string, fr *frame, tree *TreeRegressor, leafv []float64) {
	t.Helper()
	for i := 0; i < fr.n; i++ {
		want := predictCols(tree.root, fr.cols, i)
		if math.Float64bits(leafv[i]) != math.Float64bits(want) {
			t.Fatalf("%s row %d: leaf value %v, predictCols %v", name, i, leafv[i], want)
		}
	}
}

// TestLeafValuesMatchPredictCols: the leaf value growth records for a
// row is the value a walk of the finished tree returns for it, on
// generic frames with ties, on the same frames leveled, on 0/1 frames,
// and on a root the k < MinLeaf abort turns into a leaf.
func TestLeafValuesMatchPredictCols(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ws := new(treeScratch)
	for trial := 0; trial < 60; trial++ {
		n, nf := 5+rng.Intn(150), 1+rng.Intn(5)
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = make([]float64, nf)
			for f := range X[i] {
				X[i][f] = float64(rng.Intn(2 + f*3))
			}
			y[i] = float64(rng.Intn(5)) + 0.25*rng.NormFloat64()
		}
		cfg := TreeConfig{MaxDepth: 1 + rng.Intn(6), MinLeaf: 1 + rng.Intn(6)}
		fr := frameFromRows(X, y, ws)
		tree, leafv := leafValues(fr, cfg, ws)
		checkLeafValues(t, "generic", fr, tree, leafv)
		fr.readLevels()
		if !fr.leveled {
			t.Fatal("a frame of at most 14 levels should be leveled")
		}
		tree, leafv = leafValues(fr, cfg, ws)
		checkLeafValues(t, "leveled", fr, tree, leafv)
		ws.putFrame(fr)

		cols := make([][]float64, nf)
		for f := range cols {
			cols[f] = make([]float64, n)
			for i := range cols[f] {
				cols[f][i] = float64(rng.Intn(2))
			}
		}
		fr = frameFromCols(cols, y, ws)
		if !fr.leveled {
			t.Fatal("0/1 columns should make a leveled frame")
		}
		tree, leafv = leafValues(fr, cfg, ws)
		checkLeafValues(t, "0/1", fr, tree, leafv)
		ws.putFrame(fr)
	}

	// Adjacent floats: the scan splits 3|3 between 1+ulp and 1+2ulp, but
	// their midpoint rounds to 1+2ulp, so every row goes left and the
	// split is abandoned for a leaf.
	a := math.Nextafter(1, 2)
	b := math.Nextafter(a, 2)
	X := [][]float64{{a}, {a}, {a}, {b}, {b}, {b}}
	y := []float64{0, 0, 0, 1, 1, 1}
	fr := frameFromRows(X, y, ws)
	tree, leafv := leafValues(fr, TreeConfig{MaxDepth: 3, MinLeaf: 2}, ws)
	if !tree.root.leaf {
		t.Fatal("expected the k < MinLeaf abort to make the root a leaf")
	}
	checkLeafValues(t, "abort", fr, tree, leafv)
	ws.putFrame(fr)
}

// levelRows draws n rows of nf features, feature f over levels[f]
// distinct values, and labels in [-1, nClass]: -1 and nClass are out
// of range, so split search clamps them. A zero level takes -0 or +0
// at random. With mirror set, every feature has the same level count
// of rows and labels that are symmetric in the level, so splits at
// mirrored boundaries gain exactly the same.
func levelRows(rng *rand.Rand, n int, levels []int, nClass int, mirror bool) (X [][]float64, y []float64) {
	negZero := math.Copysign(0, -1)
	vals := make([][]float64, len(levels))
	for f, L := range levels {
		base := float64(rng.Intn(3) - 2) // 0 among the values most of the time
		for l := 0; l < L; l++ {
			vals[f] = append(vals[f], base+float64(l)*[]float64{0.5, 1, 3}[f%3])
		}
	}
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := range X {
		X[i] = make([]float64, len(levels))
		for f, L := range levels {
			l := rng.Intn(L)
			if mirror {
				l = i % L
			}
			v := vals[f][l]
			if v == 0 && rng.Intn(2) == 0 {
				v = negZero
			}
			X[i][f] = v
		}
		y[i] = float64(rng.Intn(nClass+2) - 1)
		if mirror {
			l := i % levels[0]
			y[i] = float64(min(l, levels[0]-1-l) % nClass)
		}
	}
	return X, y
}

// walkSegments visits node segments the way growth leaves them: the
// root [0, n), then up to three times a random stable partition of the
// current segment (idx and every order in orders) and a descent into
// one side.
func walkSegments(rng *rand.Rand, ws *treeScratch, idx []int32, orders [][]int32, visit func(lo, hi int)) {
	lo, hi := 0, len(idx)
	for cut := rng.Intn(4); ; cut-- {
		visit(lo, hi)
		if cut == 0 || hi-lo < 2 {
			return
		}
		seg := idx[lo:hi]
		k := 0
		for _, p := range seg {
			ws.left[p] = uint8(rng.Intn(2))
			k += int(ws.left[p])
		}
		stablePartition(seg, k, ws.left, ws.partL, ws.partR)
		for _, o := range orders {
			stablePartition(o[lo:hi], k, ws.left, ws.partL, ws.partR)
		}
		if rng.Intn(2) == 0 {
			hi = lo + k
		} else {
			lo += k
		}
	}
}

// orderedTwin returns the frame the ordered scan reads for a leveled
// frame lfr: fr itself, or for a bootstrap resample of fr (boot non-nil)
// the resample's columns with sorted orders; and working copies of its
// orders plus the ascending position slice growth starts from.
func orderedTwin(fr, lfr *frame, boot []int32) (ord *frame, orders [][]int32, idx []int32) {
	n, nf := lfr.n, fr.nf
	ord = fr
	if boot != nil {
		ord = &frame{y: lfr.y, n: n, nf: nf, cols: make([][]float64, nf), base: make([][]int32, nf)}
		for f := 0; f < nf; f++ {
			ord.cols[f] = make([]float64, n)
			for i, p := range boot {
				ord.cols[f][i] = fr.cols[f][p]
			}
			ord.base[f] = make([]int32, n)
			sortOrder(ord.cols[f], ord.base[f])
		}
	}
	orders = make([][]int32, nf)
	for f := range orders {
		orders[f] = append([]int32(nil), ord.base[f]...)
	}
	idx = make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return ord, orders, idx
}

// TestLevelSplitMatchesOrdered checks bestSplitLevels against
// bestSplitOrdered bit for bit — gain, threshold and ok — on random
// leveled frames: 1 to 16 levels, 2 to 4 classes with out-of-range
// labels, ±0, mirrored ties, every MinLeaf from 1 to 4, node segments
// left by up to three partitions, and bootstrap resamples with
// duplicate rows.
func TestLevelSplitMatchesOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ws := new(treeScratch)
	checks := 0
	for trial := 0; trial < 400; trial++ {
		nf, nClass := 1+rng.Intn(3), 2+rng.Intn(3)
		levels := make([]int, nf)
		for f := range levels {
			levels[f] = 1 + rng.Intn(maxLevels)
		}
		n := 1 + rng.Intn(70)
		mirror := trial%5 == 0
		if mirror {
			for f := range levels {
				levels[f] = levels[0]
			}
			n = levels[0] * (1 + rng.Intn(4))
		}
		X, y := levelRows(rng, n, levels, nClass, mirror)
		fr := frameFromRows(X, y, ws)
		fr.readLevels()
		if !fr.leveled {
			t.Fatalf("trial %d: levels %v not leveled", trial, levels)
		}
		lfr := fr
		var bs *bootstrapper
		var boot []int32
		if trial%3 == 1 {
			bs = newBootstrapper(fr, ws)
			lfr = bs.resample(rng)
			boot = bs.boot
		}
		ord, orders, idx := orderedTwin(fr, lfr, boot)
		ws.ensureGrow(0, n)
		ws.prepareLevels(lfr.y, nClass)
		walkSegments(rng, ws, idx, orders, func(lo, hi int) {
			seg := idx[lo:hi]
			for _, minLeaf := range []int{1, 2, 3, 4} {
				parentImp := giniAt(lfr.y, seg, nClass, ws)
				for f := 0; f < nf; f++ {
					wg, wt, wok := bestSplitOrdered(ord, orders[f][lo:hi], f, minLeaf, parentImp, true, nClass, ws)
					gg, gt, gok := bestSplitLevels(lfr, f, seg, minLeaf, parentImp, nClass, ws)
					if math.Float64bits(gg) != math.Float64bits(wg) || math.Float64bits(gt) != math.Float64bits(wt) || gok != wok {
						t.Fatalf("trial %d feature %d segment [%d,%d) minLeaf %d: levels (%v, %v, %v), ordered (%v, %v, %v)",
							trial, f, lo, hi, minLeaf, gg, gt, gok, wg, wt, wok)
					}
					checks++
				}
			}
		})
		if bs != nil {
			ws.putFrame(bs.out)
		}
		ws.putFrame(fr)
	}
	if checks < 5000 {
		t.Fatalf("only %d kernel comparisons", checks)
	}
}

// regressionTargets draws n targets of mixed magnitude, ±huge beside
// small values and ±0. At huge = 1e16 a float sum taken in any order
// loses or keeps different bits, and quantising against max|y| erases
// the small targets (see quantize), so many rows quantise to 0 and
// candidate sums tie; at huge = 1e3 the small targets keep most of
// their bits. With mirror set, the targets are symmetric in the first
// feature's level, as levelRows mirrors its labels.
func regressionTargets(rng *rand.Rand, n, levels0 int, huge float64, mirror bool) []float64 {
	negZero := math.Copysign(0, -1)
	y := make([]float64, n)
	for i := range y {
		switch rng.Intn(6) {
		case 0:
			y[i] = huge * float64(1-2*rng.Intn(2))
		case 1:
			y[i] = negZero
		case 2:
			y[i] = float64(rng.Intn(7) - 3)
		default:
			y[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
		}
	}
	if mirror {
		vals := []float64{huge, 0.1, -3, 7.25, 1e-3, 0, 2, -huge}
		for i := range y {
			l := i % levels0
			y[i] = vals[min(l, levels0-1-l)%len(vals)]
		}
	}
	return y
}

// TestHistSplitMatchesOrdered checks histSplit against the ordered
// regression scan bit for bit — gain, threshold and ok — on random
// leveled frames: 1 to 16 levels, ±0 as one level, adjacent-float
// levels, targets of mixed magnitude (±1e16 or ±1e3 beside small
// values, see regressionTargets), mirrored ties, every MinLeaf from 1
// to 4, node segments left by up to three partitions, and bootstrap
// resamples with duplicate rows. Half the trials have at most four
// levels per feature, as the task encoders produce.
func TestHistSplitMatchesOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := new(treeScratch)
	a := math.Nextafter(1, 2)
	adjacent := []float64{1, a, math.Nextafter(a, 2)}
	checks := 0
	for trial := 0; trial < 500; trial++ {
		nf := 1 + rng.Intn(3)
		levels := make([]int, nf)
		for f := range levels {
			levels[f] = 1 + rng.Intn(maxLevels)
			if trial%2 == 0 {
				levels[f] = 1 + rng.Intn(4)
			}
		}
		n := 1 + rng.Intn(200)
		mirror := trial%5 == 0
		if mirror {
			for f := range levels {
				levels[f] = levels[0]
			}
			n = levels[0] * (1 + rng.Intn(4))
		}
		X, _ := levelRows(rng, n, levels, 2, mirror)
		if trial%4 == 3 {
			for i := range X {
				X[i] = append(X[i], adjacent[rng.Intn(3)])
			}
			nf++
		}
		y := regressionTargets(rng, n, levels[0], []float64{1e16, 1e3}[trial%2], mirror)
		fr := frameFromRows(X, y, ws)
		fr.readLevels()
		if !fr.leveled {
			t.Fatalf("trial %d: levels %v not leveled", trial, levels)
		}
		lfr := fr
		var bs *bootstrapper
		var boot []int32
		if trial%3 == 1 {
			bs = newBootstrapper(fr, ws)
			lfr = bs.resample(rng)
			boot = bs.boot
		}
		ord, orders, idx := orderedTwin(fr, lfr, boot)
		ws.ensureGrow(0, n)
		if !ws.quantize(lfr.y) {
			t.Fatalf("trial %d: finite targets not quantised", trial)
		}
		walkSegments(rng, ws, idx, orders, func(lo, hi int) {
			seg := idx[lo:hi]
			for _, minLeaf := range []int{1, 2, 3, 4} {
				for f := 0; f < nf; f++ {
					wg, wt, wok := bestSplitOrdered(ord, orders[f][lo:hi], f, minLeaf, 0, false, 0, ws)
					gg, gt, gok := histSplit(lfr, f, seg, minLeaf, ws)
					if math.Float64bits(gg) != math.Float64bits(wg) || math.Float64bits(gt) != math.Float64bits(wt) || gok != wok {
						t.Fatalf("trial %d feature %d (%d levels) segment [%d,%d) minLeaf %d: hist (%v, %v, %v), ordered (%v, %v, %v)",
							trial, f, len(lfr.lvals[f]), lo, hi, minLeaf, gg, gt, gok, wg, wt, wok)
					}
					checks++
				}
			}
		})
		if bs != nil {
			ws.putFrame(bs.out)
		}
		ws.putFrame(fr)
	}
	if checks < 5000 {
		t.Fatalf("only %d kernel comparisons", checks)
	}
}

// TestLeveledTreesMatchOrdered grows classification trees and forests
// and regression trees over the same frame twice, on its levels and on
// its presorted orders, and requires bit-identical predictions. One
// feature's levels are adjacent floats whose midpoints round onto the
// upper value, so a split can send a whole level the other way or be
// abandoned.
func TestLeveledTreesMatchOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ws := new(treeScratch)
	a := math.Nextafter(1, 2)
	adjacent := []float64{1, a, math.Nextafter(a, 2)}
	for trial := 0; trial < 40; trial++ {
		nf, nClass := 1+rng.Intn(4), 2+rng.Intn(3)
		levels := make([]int, nf)
		for f := range levels {
			levels[f] = 1 + rng.Intn(maxLevels)
		}
		n := 2 + rng.Intn(150)
		X, y := levelRows(rng, n, levels, nClass, false)
		for i := range X {
			X[i] = append(X[i], adjacent[rng.Intn(3)])
		}
		cfg := TreeConfig{MaxDepth: 1 + rng.Intn(7), MinLeaf: 1 + rng.Intn(4)}
		fcfg := ForestConfig{NumTrees: 3, MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf, Seed: int64(trial)}

		yr := regressionTargets(rng, n, levels[0], 1e16, false)

		fr := frameFromRows(X, y, ws)
		ordTree := &TreeClassifier{Config: cfg, NumClass: nClass}
		ordTree.fitFrame(fr, ws)
		ordForest := &ForestClassifier{Config: fcfg, NumClass: nClass}
		ordForest.fitFrame(fr, ws)
		fr.readLevels()
		if !fr.leveled {
			t.Fatalf("trial %d: not leveled", trial)
		}
		lvTree := &TreeClassifier{Config: cfg, NumClass: nClass}
		lvTree.fitFrame(fr, ws)
		lvForest := &ForestClassifier{Config: fcfg, NumClass: nClass}
		lvForest.fitFrame(fr, ws)
		ws.putFrame(fr)

		fr = frameFromRows(X, yr, ws)
		ordReg := &TreeRegressor{Config: cfg}
		ordReg.fitFrame(fr, ws)
		fr.readLevels()
		lvReg := &TreeRegressor{Config: cfg}
		lvReg.fitFrame(fr, ws)
		ws.putFrame(fr)

		for i, x := range X {
			for _, pair := range [][2][]float64{
				{lvTree.PredictProba(x), ordTree.PredictProba(x)},
				{lvForest.PredictProba(x), ordForest.PredictProba(x)},
				{{lvReg.Predict(x)}, {ordReg.Predict(x)}},
			} {
				for c := range pair[1] {
					if math.Float64bits(pair[0][c]) != math.Float64bits(pair[1][c]) {
						t.Fatalf("trial %d row %d output %d: leveled %v, ordered %v", trial, i, c, pair[0], pair[1])
					}
				}
			}
		}
	}
}

// TestLevelsKeepOrderedPath: a frame is leveled only when every feature
// has at most maxLevels values, none NaN, in a (level, position)-sorted
// base order; any other frame, and every resample of it, keeps its
// orders. Boosting reads levels itself.
func TestLevelsKeepOrderedPath(t *testing.T) {
	ws := new(treeScratch)
	build := func(col []float64) *frame {
		X := make([][]float64, len(col))
		for i, v := range col {
			X[i] = []float64{float64(i % 2), v}
		}
		return frameFromRows(X, make([]float64, len(col)), ws)
	}
	spread := func(L int) []float64 {
		col := make([]float64, 40)
		for i := range col {
			col[i] = float64((i * 7) % L)
		}
		return col
	}
	nan := spread(4)
	nan[5] = math.NaN()
	for _, tc := range []struct {
		name    string
		col     []float64
		unsort  bool
		leveled bool
	}{
		{"16 levels", spread(16), false, true},
		{"17 levels", spread(17), false, false},
		{"NaN", nan, false, false},
		{"positions out of order in a level", spread(4), true, false},
	} {
		fr := build(tc.col)
		if tc.unsort {
			o := fr.base[1]
			o[0], o[1] = o[1], o[0]
		}
		fr.readLevels()
		if fr.leveled != tc.leveled {
			t.Fatalf("%s: leveled %v, want %v", tc.name, fr.leveled, tc.leveled)
		}
		bs := newBootstrapper(fr, ws)
		out := bs.resample(rand.New(rand.NewSource(1)))
		if out.leveled != tc.leveled {
			t.Fatalf("%s: resample leveled %v, want %v", tc.name, out.leveled, tc.leveled)
		}
		if !tc.leveled {
			// The ordered resample carries a full order of every feature.
			seen := make([]bool, out.n)
			for _, p := range out.base[1] {
				seen[p] = true
			}
			for p, ok := range seen {
				if !ok {
					t.Fatalf("%s: resample order misses position %d", tc.name, p)
				}
			}
		}
		ws.putFrame(bs.out)
		ws.putFrame(fr)

		fr = build(tc.col)
		if tc.unsort {
			o := fr.base[1]
			o[0], o[1] = o[1], o[0]
		}
		for i := range fr.y {
			fr.y[i] = float64(i % 3)
		}
		g := &GBMRegressor{Config: GBMConfig{NumTrees: 2}}
		g.fitFrame(fr, ws)
		if fr.leveled != tc.leveled {
			t.Fatalf("%s: boosting leveled %v, want %v", tc.name, fr.leveled, tc.leveled)
		}
		ws.putFrame(fr)
	}
}
