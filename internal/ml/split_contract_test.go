package ml

import (
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

// The regression split contract: a split's score is a function of the
// exact integer sums of the tree's quantised targets on each side
// (splitScore), so it depends only on which rows fall on each side.
// These tests hold the kernels to that contract directly; the parity
// tests in kernel_parity_test.go hold the leveled and ordered scans to
// each other.

// refCandidate is one boundary of a leveled node with its exact score
// L²/n_L + R²/n_R − T²/n and a bound on the float score's rounding
// error.
type refCandidate struct {
	thresh float64
	score  *big.Rat
	tol    *big.Rat
}

// refCandidates computes, in math/big, every candidate boundary of
// feature f over the node segment seg of a leveled frame whose targets
// are quantised into yq.
func refCandidates(fr *frame, f int, seg []int32, minLeaf int, yq []int64) []refCandidate {
	lv, vals := fr.lv[f], fr.lvals[f]
	sums := make([]*big.Int, len(vals))
	cnts := make([]int64, len(vals))
	for l := range sums {
		sums[l] = new(big.Int)
	}
	t := new(big.Int)
	for _, p := range seg {
		sums[lv[p]].Add(sums[lv[p]], big.NewInt(yq[p]))
		cnts[lv[p]]++
		t.Add(t, big.NewInt(yq[p]))
	}
	n := int64(len(seg))
	if n == 0 {
		return nil
	}
	sq := func(x *big.Int, k int64) *big.Rat {
		return new(big.Rat).SetFrac(new(big.Int).Mul(x, x), big.NewInt(k))
	}
	parent := sq(t, n)
	// Each of the float score's seven roundings (three conversions
	// count once each, two squares, two divisions, two additions) is
	// within 2^-53 of its operand; 2^-48 times the sum of the terms'
	// magnitudes bounds the total with room to spare.
	eps := new(big.Rat).SetFrac64(1, 1<<48)
	var out []refCandidate
	l, nl := new(big.Int), int64(0)
	prev := -1
	for lev := range vals {
		if cnts[lev] == 0 {
			continue
		}
		if prev >= 0 && nl >= int64(minLeaf) && n-nl >= int64(minLeaf) {
			r := new(big.Int).Sub(t, l)
			a, b := sq(l, nl), sq(r, n-nl)
			s := new(big.Rat).Add(a, b)
			s.Sub(s, parent)
			tol := new(big.Rat).Add(a, b)
			tol.Add(tol, parent)
			tol.Mul(tol, eps)
			out = append(out, refCandidate{thresh: (vals[prev] + vals[lev]) / 2, score: s, tol: tol})
		}
		l.Add(l, sums[lev])
		nl += cnts[lev]
		prev = lev
	}
	return out
}

// judge compares a kernel result (thresh, ok) with a node's reference
// candidates. The exact first-best is the first candidate of the
// highest score above 0. It is decisive when it beats 0 and every other
// candidate by more than their rounding bounds; then the kernel must
// return it. Otherwise the kernel may return any candidate within
// rounding of it, or no split if it is within rounding of 0.
func judge(cands []refCandidate, thresh float64, ok bool) (best int, decisive, accept bool) {
	is := func(c refCandidate) bool { return ok && math.Float64bits(thresh) == math.Float64bits(c.thresh) }
	best = -1
	for i, c := range cands {
		if c.score.Sign() > 0 && (best < 0 || c.score.Cmp(cands[best].score) > 0) {
			best = i
		}
	}
	if best < 0 {
		// No candidate, or every exact score is 0: a float score may
		// still round above 0.
		for _, c := range cands {
			if is(c) {
				return -1, false, true
			}
		}
		return -1, false, !ok
	}
	b := cands[best]
	above := func(x, y *big.Rat, tols ...*big.Rat) bool {
		d := new(big.Rat).Sub(x, y)
		for _, t := range tols {
			d.Sub(d, t)
		}
		return d.Sign() > 0
	}
	decisive = above(b.score, new(big.Rat), b.tol)
	accept = is(b) || !ok && !decisive
	for i, c := range cands {
		if i != best && !above(b.score, c.score, b.tol, c.tol) {
			decisive = false
			accept = accept || is(c)
		}
	}
	if decisive {
		accept = is(b)
	}
	return best, decisive, accept
}

// TestHistSplitMatchesBigReference checks histSplit against a
// math/big reference over the quantised targets: wherever the exact
// first-best score is decisive (see judge), the kernel returns that
// boundary's threshold bits, ok, and a gain within the rounding bound
// of the exact one; where candidates are within rounding of each other,
// it returns one of them.
func TestHistSplitMatchesBigReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := new(treeScratch)
	decisive, near := 0, 0
	for trial := 0; trial < 300; trial++ {
		nf := 1 + rng.Intn(3)
		levels := make([]int, nf)
		for f := range levels {
			levels[f] = 1 + rng.Intn(maxLevels)
		}
		n := 2 + rng.Intn(150)
		X, _ := levelRows(rng, n, levels, 2, false)
		y := regressionTargets(rng, n, levels[0], []float64{1e16, 1e3, 1}[trial%3], false)
		fr := frameFromRows(X, y, ws)
		fr.readLevels()
		if !fr.leveled || !ws.quantize(fr.y) {
			t.Fatalf("trial %d: frame not leveled or targets not quantised", trial)
		}
		yq := append([]int64(nil), ws.yq[:n]...)
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		ws.ensureGrow(0, n)
		walkSegments(rng, ws, idx, nil, func(lo, hi int) {
			seg := idx[lo:hi]
			for _, minLeaf := range []int{1, 2, 3} {
				for f := 0; f < nf; f++ {
					gain, thresh, ok := histSplit(fr, f, seg, minLeaf, ws)
					cands := refCandidates(fr, f, seg, minLeaf, yq)
					best, dec, accept := judge(cands, thresh, ok)
					if !accept {
						t.Fatalf("trial %d feature %d segment [%d,%d) minLeaf %d: kernel (%v, %v, %v), reference threshold %v (decisive %v)",
							trial, f, lo, hi, minLeaf, gain, thresh, ok, cands[max(best, 0)].thresh, dec)
					}
					if !dec {
						near++
						continue
					}
					// gain = score/n·2^-2qshift, off by at most the bound.
					b := cands[best]
					scale := new(big.Rat).SetFloat64(math.Ldexp(1, -2*ws.qshift))
					scale.Mul(scale, new(big.Rat).SetFrac64(1, int64(len(seg))))
					want := new(big.Rat).Mul(b.score, scale)
					diff := new(big.Rat).SetFloat64(gain)
					diff.Sub(diff, want)
					if diff.Abs(diff).Cmp(new(big.Rat).Mul(b.tol, scale)) > 0 {
						t.Fatalf("trial %d feature %d: gain %v, exact %s", trial, f, gain, want.FloatString(20))
					}
					decisive++
				}
			}
		})
		ws.putFrame(fr)
	}
	if decisive < 3000 {
		t.Fatalf("only %d decisive comparisons (%d within rounding)", decisive, near)
	}
	t.Logf("%d decisive comparisons; %d others (no candidate above 0, or candidates within rounding)", decisive, near)
}

// TestSplitPermutationInvariant: reordering a node's rows leaves every
// split bit-identical — gain, threshold and ok — in both regression
// scans. The rows are permuted as a whole frame (so the ordered scan
// meets tied values in another position order, and the leveled scan
// another segment order), and a leveled node's segment is also shuffled
// in place. Features have ties and, in half the trials, more than
// maxLevels values, so the frame takes the ordered path. Every third
// trial adds a feature with NaN cells, which sort after every number
// and never border a threshold.
func TestSplitPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ws := new(treeScratch)
	type split struct {
		gain, thresh float64
		ok           bool
	}
	for trial := 0; trial < 200; trial++ {
		n, nf := 2+rng.Intn(120), 1+rng.Intn(3)
		L := 2 + rng.Intn(maxLevels-1)
		if trial%2 == 1 {
			L = maxLevels + 1 + rng.Intn(30)
		}
		withNaN := trial%3 == 0
		if withNaN {
			nf++
		}
		X := make([][]float64, n)
		for i := range X {
			X[i] = make([]float64, nf)
			for f := range X[i] {
				X[i][f] = float64(rng.Intn(L)) * 0.25
			}
			if withNaN && rng.Intn(5) == 0 {
				X[i][nf-1] = math.NaN()
			}
		}
		y := regressionTargets(rng, n, 1, []float64{1e16, 1e3}[trial%2], false)
		// A node: a random subset of the rows, by original index.
		in := make([]bool, n)
		for i := range in {
			in[i] = rng.Intn(4) > 0
		}
		minLeaf := 1 + rng.Intn(3)
		perm := rng.Perm(n)

		splits := func(perm []int) []split {
			Xp, yp := make([][]float64, n), make([]float64, n)
			var seg []int32
			for i, src := range perm {
				Xp[i], yp[i] = X[src], y[src]
			}
			for i, src := range perm {
				if in[src] {
					seg = append(seg, int32(i))
				}
			}
			fr := frameFromRows(Xp, yp, ws)
			defer ws.putFrame(fr)
			if !ws.quantize(fr.y) {
				t.Fatalf("trial %d: finite targets not quantised", trial)
			}
			var out []split
			for f := 0; f < nf; f++ {
				var order []int32
				for _, p := range fr.base[f] {
					if in[perm[p]] {
						order = append(order, p)
					}
				}
				g, th, ok := bestSplitOrdered(fr, order, f, minLeaf, 0, false, 0, ws)
				out = append(out, split{g, th, ok})
			}
			if fr.readLevels(); fr.leveled {
				for f := 0; f < nf; f++ {
					g, th, ok := histSplit(fr, f, seg, minLeaf, ws)
					out = append(out, split{g, th, ok})
					rng.Shuffle(len(seg), func(i, j int) { seg[i], seg[j] = seg[j], seg[i] })
					g, th, ok = histSplit(fr, f, seg, minLeaf, ws)
					out = append(out, split{g, th, ok})
				}
			}
			return out
		}
		identity := make([]int, n)
		for i := range identity {
			identity[i] = i
		}
		want, got := splits(identity), splits(perm)
		if len(want) != len(got) {
			t.Fatalf("trial %d: %d splits, then %d", trial, len(want), len(got))
		}
		for i := range want {
			w, g := want[i], got[i]
			if math.Float64bits(w.gain) != math.Float64bits(g.gain) || math.Float64bits(w.thresh) != math.Float64bits(g.thresh) || w.ok != g.ok {
				t.Fatalf("trial %d split %d: %+v, permuted %+v", trial, i, w, g)
			}
		}
	}
}

// TestSplitNeverBesideNaN: NaN rows sort last and always go right, so
// the ordered scan offers no threshold between the last number and the
// first NaN — where the best split of this node would otherwise lie,
// with a NaN threshold that sends every row right.
func TestSplitNeverBesideNaN(t *testing.T) {
	ws := new(treeScratch)
	nan := math.NaN()
	X := [][]float64{{0}, {nan}, {1}, {2}, {nan}, {3}}
	y := []float64{0, 1, 0, 0, 1, 0}
	for _, clf := range []bool{true, false} {
		fr := frameFromRows(X, y, ws)
		if !clf && !ws.quantize(fr.y) {
			t.Fatal("finite targets not quantised")
		}
		_, th, ok := bestSplitOrdered(fr, fr.base[0], 0, 1, giniAt(fr.y, fr.base[0], 2, ws), clf, 2, ws)
		if math.IsNaN(th) || (ok && th > 3) {
			t.Fatalf("clf=%v: threshold %v, ok %v", clf, th, ok)
		}
		ws.putFrame(fr)
	}
}

// TestQuantizeBound checks quantize's contract exactly, in math/big:
// every target is within 2^-41·max|y| of yq·2^-qshift, |yq| ≤ 2^41, and
// qshift is 40 − e for max|y| in [2^e, 2^(e+1)), from subnormal to
// near-overflow targets. quantBits keeps n·2^(k+1) below 2^63, the
// bound on any sum of n quantised targets, for every int32 row count,
// and is 40 below 2^22 rows.
func TestQuantizeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ws := new(treeScratch)
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(60)
		top := rng.Intn(2098) - 1074 // exponent of the largest target
		y := make([]float64, n)
		for i := range y {
			switch rng.Intn(5) {
			case 0:
				y[i] = 0
			case 1:
				// Far below the largest: quantises to 0 or a few units.
				y[i] = math.Ldexp(rng.Float64(), top-40-rng.Intn(20))
			default:
				y[i] = math.Ldexp(rng.Float64(), top-rng.Intn(8))
			}
			if rng.Intn(2) == 0 {
				y[i] = -y[i]
			}
		}
		y[rng.Intn(n)] = math.Ldexp(1+rng.Float64(), top-1)
		m := 0.0
		for _, v := range y {
			m = max(m, math.Abs(v))
		}
		if !ws.quantize(y) {
			t.Fatalf("trial %d: finite targets not quantised", trial)
		}
		if want := 40 - math.Ilogb(m); ws.qshift != want {
			t.Fatalf("trial %d: qshift %d, want %d", trial, ws.qshift, want)
		}
		bound := new(big.Float).SetPrec(4096).SetMantExp(new(big.Float).SetFloat64(m), -41)
		for i, v := range y {
			q := ws.yq[i]
			if q > 1<<41 || q < -(1<<41) {
				t.Fatalf("trial %d: |yq| = %d above 2^41", trial, q)
			}
			back := new(big.Float).SetPrec(4096).SetMantExp(new(big.Float).SetInt64(q), -ws.qshift)
			diff := new(big.Float).SetPrec(4096).Sub(back, new(big.Float).SetFloat64(v))
			if diff.Abs(diff).Cmp(bound) > 0 {
				t.Fatalf("trial %d: y %v quantised to %d·2^-%d, off by %v > 2^-41·%v", trial, v, q, ws.qshift, diff, m)
			}
		}
	}
	for _, n := range []int{1, 2, 600, 1<<22 - 1, 1 << 22, 1<<22 + 1, 1<<23 - 1, 1 << 23, 1 << 30, math.MaxInt32} {
		k := quantBits(n)
		if n < 1<<22 && k != 40 {
			t.Fatalf("quantBits(%d) = %d, want 40", n, k)
		}
		// n·2^(k+1) < 2^63 ⇔ bits.Len(n) + k + 1 ≤ 63.
		if bits.Len(uint(n))+k+1 > 63 {
			t.Fatalf("quantBits(%d) = %d: %d targets of magnitude 2^%d can overflow int64", n, k, n, k+1)
		}
	}
}

// TestNonFiniteTargetIsOneLeaf: a NaN or infinite regression target
// makes the whole tree one leaf holding the targets' mean, on the
// leveled and the ordered path and in every boosting stage, and
// quantize converts no target.
func TestNonFiniteTargetIsOneLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ws := new(treeScratch)
	for _, bad := range [][]float64{{math.NaN()}, {math.Inf(1)}, {math.Inf(-1)}, {math.Inf(1), math.Inf(-1)}} {
		n := 40
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = []float64{float64(i % 4), float64(i % 7)}
			y[i] = float64(i%4) + 0.1*rng.NormFloat64()
		}
		for _, v := range bad {
			y[rng.Intn(n)] = v
		}
		ws.yq = make([]int64, n)
		for i := range ws.yq {
			ws.yq[i] = 7
		}
		if ws.quantize(y) {
			t.Fatalf("%v: quantize accepted a non-finite target", bad)
		}
		for i, q := range ws.yq {
			if q != 7 {
				t.Fatalf("%v: quantize wrote yq[%d] = %d", bad, i, q)
			}
		}
		want := mean(y) // meanAt over every position, as the root leaf takes it
		for _, leveled := range []bool{true, false} {
			fr := frameFromRows(X, y, ws)
			if leveled {
				fr.readLevels()
			}
			tree := &TreeRegressor{Config: TreeConfig{MaxDepth: 4, MinLeaf: 1}}
			tree.fitFrame(fr, ws)
			ws.putFrame(fr)
			if !tree.root.leaf || math.Float64bits(tree.root.value) != math.Float64bits(want) {
				t.Fatalf("%v leveled %v: root leaf %v value %v, want one leaf of %v", bad, leveled, tree.root.leaf, tree.root.value, want)
			}
		}
		g := &GBMRegressor{Config: GBMConfig{NumTrees: 3}}
		g.FitData(dsOf(X, y))
		for i, tr := range g.trees {
			if !tr.root.leaf {
				t.Fatalf("%v: boosting stage %d split", bad, i)
			}
		}
	}
}

// TestSplitTieKeepsFirst: where two thresholds of a feature, or the
// best splits of two features, score exactly the same, the first wins
// — in bestSplitLevels, histSplit, both branches of
// bestSplitOrdered, and across features in growFrame. The node is four
// value levels of three rows each whose targets (or labels) are
// symmetric end to end, so the two outer boundaries tie bit for bit
// (the score of one is the other's with its two sides' terms added in
// the other order) and beat the middle one. A parity test compares
// kernels with each other and cannot catch a tie rule changed in all
// of them at once; this test fixes the rule itself.
func TestSplitTieKeepsFirst(t *testing.T) {
	ws := new(treeScratch)
	const m = 3
	// Per level 0..3: regression target and class label.
	yr := []float64{3, 0, 0, 3}
	yc := []float64{1, 0, 0, 1}
	rows := func(ys []float64, reverse bool) (X [][]float64, y []float64) {
		for l := 0; l < 4; l++ {
			for k := 0; k < m; k++ {
				v := float64(l)
				if reverse {
					v = float64(3 - l)
				}
				X = append(X, []float64{v, float64(3 - l)})
				y = append(y, ys[l])
			}
		}
		return X, y
	}
	const first = 0.5 // the boundary between levels 0 and 1
	for _, reverse := range []bool{false, true} {
		for _, clf := range []bool{false, true} {
			ys := yr
			if clf {
				ys = yc
			}
			X, y := rows(ys, reverse)
			fr := frameFromRows(X, y, ws)
			seg := make([]int32, len(y))
			for i := range seg {
				seg[i] = int32(i)
			}
			var og, ot float64
			var ook bool
			if clf {
				ws.prepareLevels(y, 2)
				og, ot, ook = bestSplitOrdered(fr, fr.base[0], 0, 1, giniAt(y, seg, 2, ws), true, 2, ws)
			} else {
				ws.quantize(y)
				og, ot, ook = bestSplitOrdered(fr, fr.base[0], 0, 1, 0, false, 0, ws)
			}
			fr.readLevels()
			if !fr.leveled {
				t.Fatal("four levels should make a leveled frame")
			}
			var lg, lt float64
			var lok bool
			if clf {
				lg, lt, lok = bestSplitLevels(fr, 0, seg, 1, giniAt(y, seg, 2, ws), 2, ws)
			} else {
				lg, lt, lok = histSplit(fr, 0, seg, 1, ws)
			}
			ws.putFrame(fr)
			if !ook || !lok || ot != first || lt != first || math.Float64bits(og) != math.Float64bits(lg) {
				t.Fatalf("clf %v reverse %v: ordered (%v, %v, %v), leveled (%v, %v, %v); want the first threshold %v",
					clf, reverse, og, ot, ook, lg, lt, lok, first)
			}
		}
	}

	// Across features: feature 1 mirrors feature 0, so their best
	// splits gain the same; growFrame keeps feature 0 on either path.
	for _, clf := range []bool{false, true} {
		ys := yr
		if clf {
			ys = yc
		}
		X, y := rows(ys, false)
		for _, leveled := range []bool{true, false} {
			fr := frameFromRows(X, y, ws)
			if leveled {
				fr.readLevels()
			}
			var root *treeNode
			cfg := TreeConfig{MaxDepth: 1, MinLeaf: 1}
			if clf {
				tc := &TreeClassifier{Config: cfg, NumClass: 2}
				tc.fitFrame(fr, ws)
				root = tc.root
			} else {
				tr := &TreeRegressor{Config: cfg}
				tr.fitFrame(fr, ws)
				root = tr.root
			}
			ws.putFrame(fr)
			if root.leaf || root.feature != 0 || root.thresh != first {
				t.Fatalf("clf %v leveled %v: root splits feature %d at %v, want feature 0 at %v", clf, leveled, root.feature, root.thresh, first)
			}
		}
	}
}
