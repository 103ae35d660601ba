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
// generic frames with ties, on binary frames, and on a root the
// k < MinLeaf abort turns into a leaf.
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
		ws.putFrame(fr)

		cols := make([][]float64, nf)
		for f := range cols {
			cols[f] = make([]float64, n)
			for i := range cols[f] {
				cols[f][i] = float64(rng.Intn(2))
			}
		}
		fr = frameFromCols(cols, y, ws)
		if !fr.binary {
			t.Fatal("0/1 columns should make a binary frame")
		}
		tree, leafv = leafValues(fr, cfg, ws)
		checkLeafValues(t, "binary", fr, tree, leafv)
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
