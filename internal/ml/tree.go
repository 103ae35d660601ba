package ml

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
)

// treeNode is a binary CART node. Leaves hold a value (regression) or a
// class-probability vector (classification).
type treeNode struct {
	feature  int
	thresh   float64
	left     *treeNode
	right    *treeNode
	value    float64
	proba    []float64
	leaf     bool
	nSamples int
}

// TreeConfig controls CART growth.
type TreeConfig struct {
	MaxDepth    int // default 6
	MinLeaf     int // minimum samples per leaf, default 2
	MaxFeatures int // features sampled per split; 0 = all
	Seed        int64
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 6
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	return c
}

// treeScratch holds the buffers reused across every node of a fit —
// node position slices, per-feature working orders (none for a leveled
// frame), partition, class-count and level-histogram scratch, the
// regression histogram blocks of the open nodes, the quantised
// regression targets, and the feature-sampling source — so growing a
// tree allocates only its leaf probability vectors and, in slab-sized
// chunks, its persistent nodes. Ensemble fits share one scratch across
// all their trees, and the pool shares it across fits.
type treeScratch struct {
	feats    []int
	leftCnt  []float64
	rightCnt []float64
	counts   []float64

	// Per-fit growth state: idx is the node row-position slice (the
	// successor of the old allIndexes allocation), work holds the
	// per-feature sorted position orders growFrame partitions in place,
	// left marks the split side per position (1 = left), and partL/
	// partR gather the two sides of a stable partition. All are
	// slab-reused across the trees of a fit.
	idx     []int32
	work    [][]int32
	workBuf []int32
	left    []uint8
	partL   []int32
	partR   []int32
	// leafv, when non-nil, receives every position's leaf value as the
	// leaves of a regression tree are made: leafv[p] is the value the
	// tree predicts for frame row p. Boosting sets it to update its
	// predictions without walking the new tree again; leafBuf backs it.
	leafv   []float64
	leafBuf []float64
	// cnt backs counting sorts over presorted value ranks.
	cnt []int32
	// cls[p] is position p's class, clamped, and hist the level × class
	// count histogram bestSplitLevels builds per node and feature; both
	// serve leveled frames only.
	cls  []int32
	hist []float64
	// yq[p] is position p's regression target quantised for the tree
	// being grown, and qshift its scale's exponent (see quantize).
	yq     []int64
	qshift int
	// hsum and hcnt hold the histogram blocks of leveled regression
	// growth (prepareHist): block s, hstride entries from s·hstride,
	// holds for every feature f and level l of it the sum of a node's
	// quantised targets and its row count at entry hoff[f]+l.
	hsum    []int64
	hcnt    []int32
	hoff    []int
	hstride int

	// frameFree recycles fitting frames (column/order slabs) across the
	// fits sharing this scratch — see getFrame/putFrame in colfit.go.
	frameFree []*frame

	// nodes is the current treeNode slab: newNode hands out slots until
	// the chunk is spent, then starts a fresh one. Chunks are never
	// recycled — handed-out nodes live as long as their tree — so one
	// scratch can serve every tree of an ensemble while trimming node
	// allocations by the chunk factor.
	nodes    []treeNode
	nodeUsed int

	// src is the feature-sampling source of the tree being grown and rng
	// the Rand over it, made once: featureRNG reseeds src for each tree,
	// so no tree allocates a source of its own (4.9 KB).
	src randSource
	rng *rand.Rand
}

// nodeChunk is the slab size; a depth-6 CART tree tops out at 127
// nodes, so a chunk covers a couple of trees.
const nodeChunk = 256

// scratchPool recycles treeScratch across fits. A discovery run fits
// thousands of models over one workload, all with the same row and
// feature counts, so the pooled buffers converge to the workload's
// sizes and steady-state fits stop allocating growth scratch. Safe
// because handed-out nodes are never revisited by newNode: a recycled
// scratch simply keeps carving its current slab where the previous fit
// stopped.
var scratchPool = sync.Pool{New: func() any { return new(treeScratch) }}

func getScratch() *treeScratch   { return scratchPool.Get().(*treeScratch) }
func putScratch(ws *treeScratch) { scratchPool.Put(ws) }

func (ws *treeScratch) newNode(nSamples int) *treeNode {
	if ws.nodeUsed == len(ws.nodes) {
		ws.nodes = make([]treeNode, nodeChunk)
		ws.nodeUsed = 0
	}
	n := &ws.nodes[ws.nodeUsed]
	ws.nodeUsed++
	n.nSamples = nSamples
	return n
}

// ensureGrow sizes the growth buffers for a fit over nf features and n
// positions and rebuilds the per-feature working order slices.
func (ws *treeScratch) ensureGrow(nf, n int) {
	if cap(ws.idx) < n {
		ws.idx = make([]int32, n)
		ws.left = make([]uint8, n)
		ws.partL = make([]int32, n)
		ws.partR = make([]int32, n)
	}
	if cap(ws.workBuf) < nf*n {
		ws.workBuf = make([]int32, nf*n)
	}
	ws.work = ws.work[:0]
	for f := 0; f < nf; f++ {
		ws.work = append(ws.work, ws.workBuf[f*n:(f+1)*n])
	}
}

// TreeRegressor is a CART regression tree using variance reduction.
type TreeRegressor struct {
	Config TreeConfig
	root   *treeNode
}

// FitData grows the tree on a columnar data view.
func (t *TreeRegressor) FitData(d Data) {
	ws := getScratch()
	fr := d.buildFrame(ws)
	fr.readLevels()
	t.fitFrame(fr, ws)
	ws.putFrame(fr)
	putScratch(ws)
}

// fitFrame grows the tree over the frame's value levels or presorted
// feature orders.
func (t *TreeRegressor) fitFrame(fr *frame, ws *treeScratch) {
	cfg := t.Config.withDefaults()
	t.root = growFit(fr, cfg, featureRNG(cfg, fr.nf, ws), false, 0, ws.quantize(fr.y), ws)
}

// samples reports whether a split over nf features scans only a
// MaxFeatures sample of them.
func (c TreeConfig) samples(nf int) bool {
	return c.MaxFeatures > 0 && c.MaxFeatures < nf
}

// featureRNG returns the source MaxFeatures sampling draws from, or nil
// when every split scans all nf features and nothing would read it. The
// source is the scratch's, reseeded with the tree's seed. A seeding
// costs ~3.5 µs (math/rand's ~14.5 µs), a few per cent of a depth-3
// boosting tree over 420 rows, so trees that never sample skip it.
func featureRNG(cfg TreeConfig, nf int, ws *treeScratch) *rand.Rand {
	if !cfg.samples(nf) {
		return nil
	}
	if ws.rng == nil {
		ws.rng = rand.New(&ws.src)
	}
	ws.src.Seed(cfg.Seed)
	return ws.rng
}

// Predict returns the tree's output for a single example.
func (t *TreeRegressor) Predict(x []float64) float64 {
	return descend(t.root, x).value
}

// TreeClassifier is a CART classification tree using Gini impurity.
type TreeClassifier struct {
	Config   TreeConfig
	NumClass int
	root     *treeNode
}

// FitData grows the tree on a data view whose labels are class ids
// 0..NumClass-1.
func (t *TreeClassifier) FitData(d Data) {
	ws := getScratch()
	fr := d.buildFrame(ws)
	fr.readLevels()
	t.fitFrame(fr, ws)
	ws.putFrame(fr)
	putScratch(ws)
}

func (t *TreeClassifier) fitFrame(fr *frame, ws *treeScratch) {
	if t.NumClass <= 0 {
		t.NumClass = countClasses(fr.y)
	}
	cfg := t.Config.withDefaults()
	t.root = growFit(fr, cfg, featureRNG(cfg, fr.nf, ws), true, t.NumClass, true, ws)
}

// PredictProba returns class probabilities for a single example.
func (t *TreeClassifier) PredictProba(x []float64) []float64 {
	return descend(t.root, x).proba
}

// Predict returns the arg-max class for a single example.
func (t *TreeClassifier) Predict(x []float64) float64 {
	return float64(argmax(t.PredictProba(x)))
}

func countClasses(y []float64) int {
	m := 0
	for _, v := range y {
		if int(v) > m {
			m = int(v)
		}
	}
	return m + 1
}

func descend(n *treeNode, x []float64) *treeNode {
	for !n.leaf {
		if x[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

// asLeaf finalizes a node as a leaf: the prediction payload (mean value
// or class probabilities) is only materialized here, since descend never
// reads it off internal nodes. A regression leaf also writes its value
// to ws.leafv for each of its positions when boosting asked for them.
func asLeaf(node *treeNode, y []float64, idx []int32, clf bool, nClass int, ws *treeScratch) *treeNode {
	node.leaf = true
	if clf {
		node.proba = classProba(y, idx, nClass)
		return node
	}
	node.value = meanAt(y, idx)
	if ws.leafv != nil {
		for _, p := range idx {
			ws.leafv[p] = node.value
		}
	}
	return node
}

// growFit prepares the per-fit growth state (position slice, working
// copies of the frame's presorted feature orders, the cached classes or
// the regression histogram blocks) and grows the tree. Orders are nil
// for leveled frames, classification or regression: there are none to
// copy, and growth reads each node off its ascending position segment.
// finite reports that a regression tree's targets are finite and
// quantised into ws.yq (see quantize); classification passes true.
func growFit(fr *frame, cfg TreeConfig, rng *rand.Rand, clf bool, nClass int, finite bool, ws *treeScratch) *treeNode {
	n := fr.n
	var orders [][]int32
	if fr.leveled {
		ws.ensureGrow(0, n)
	} else {
		ws.ensureGrow(fr.nf, n)
		for f := 0; f < fr.nf; f++ {
			copy(ws.work[f], fr.base[f])
		}
		orders = ws.work
	}
	idx := ws.idx[:n]
	for i := range idx {
		idx[i] = int32(i)
	}
	switch {
	case !finite:
		// A NaN or infinite target: every gain would be NaN, as the
		// root's variance is, so the tree is one leaf.
		return asLeaf(ws.newNode(n), fr.y, idx, clf, nClass, ws)
	case clf && fr.leveled:
		ws.prepareLevels(fr.y, nClass)
	case fr.leveled:
		ws.prepareHist(fr)
	}
	return growFrame(fr, orders, idx, 0, n, 0, 0, cfg, rng, clf, nClass, ws)
}

// growFrame recursively grows a CART tree over the position segment
// [lo, hi) of idx and of every per-feature sorted order in orders: idx
// holds the node's rows in insertion order, orders[f][lo:hi] holds the
// same rows sorted by feature f. Splits stably partition the arrays
// into left|right segments, so no node ever sorts — the frame's one-time
// presort (or the space-level presorted orderings it was filtered from)
// carries the whole tree. idx is partitioned at every split, since
// leaves read it; the orders only when a child can split again (its
// depth is below MaxDepth and it holds at least 2*MinLeaf rows), since
// only split search reads them. idx[lo:hi] is always ascending, since it
// starts as 0..n-1 and every partition is stable; leveled frames (nil
// orders) rely on that.
//
// A leveled regression node scans the histogram block hs (see
// prepareHist) instead of its rows. The root fills its own block, one
// pass over its rows per feature, and so does every node of a tree that
// samples features, for the features it drew. In a tree that scans
// every feature, a splitting node builds its children's blocks instead:
// the smaller child's from its rows and the larger child's as the
// node's block minus the smaller one's (histogram subtraction, Ke et
// al., NeurIPS 2017). The sums are integers, so the difference is
// exactly the fill the larger child would make, and its splits are the
// same bit for bit.
func growFrame(fr *frame, orders [][]int32, idx []int32, lo, hi, depth, hs int, cfg TreeConfig, rng *rand.Rand, clf bool, nClass int, ws *treeScratch) *treeNode {
	node := ws.newNode(hi - lo)
	seg := idx[lo:hi]
	if depth >= cfg.MaxDepth || hi-lo < 2*cfg.MinLeaf || pure(fr.y, seg) {
		return asLeaf(node, fr.y, seg, clf, nClass, ws)
	}

	nf := fr.nf
	if cap(ws.feats) < nf {
		ws.feats = make([]int, nf)
	}
	feats := ws.feats[:nf]
	for i := range feats {
		feats[i] = i
	}
	sample := cfg.samples(nf)
	if sample {
		rng.Shuffle(nf, func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		feats = feats[:cfg.MaxFeatures]
		sort.Ints(feats)
	}
	hist := fr.leveled && !clf
	if hist && (sample || depth == 0) {
		ws.fillHist(fr, feats, seg, hs)
	}

	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0
	var parentImp float64
	if clf {
		parentImp = giniAt(fr.y, seg, nClass, ws)
	}
	for _, f := range feats {
		var gain, thresh float64
		var ok bool
		switch {
		case fr.leveled && clf:
			gain, thresh, ok = bestSplitLevels(fr, f, seg, cfg.MinLeaf, parentImp, nClass, ws)
		case fr.leveled:
			gain, thresh, ok = ws.scanHist(fr, f, hs, hi-lo, cfg.MinLeaf)
		default:
			gain, thresh, ok = bestSplitOrdered(fr, orders[f][lo:hi], f, cfg.MinLeaf, parentImp, clf, nClass, ws)
		}
		if ok && gain > bestGain+1e-12 {
			bestGain, bestFeat, bestThresh = gain, f, thresh
		}
	}
	if bestFeat < 0 {
		return asLeaf(node, fr.y, seg, clf, nClass, ws)
	}

	// Mark each position's side and count the left partition. A
	// leveled frame compares its level values: rows of a level compare
	// equal to it.
	k := 0
	if fr.leveled {
		lv, vals := fr.lv[bestFeat], fr.lvals[bestFeat]
		for _, p := range seg {
			var b uint8
			if vals[lv[p]] <= bestThresh {
				b = 1
			}
			ws.left[p] = b
			k += int(b)
		}
	} else {
		col := fr.cols[bestFeat]
		for _, p := range seg {
			var b uint8
			if col[p] <= bestThresh {
				b = 1
			}
			ws.left[p] = b
			k += int(b)
		}
	}
	if k < cfg.MinLeaf || (hi-lo)-k < cfg.MinLeaf {
		return asLeaf(node, fr.y, seg, clf, nClass, ws)
	}
	node.feature = bestFeat
	node.thresh = bestThresh
	// Stable-partition the insertion order and, when a child will
	// search them, the feature orders: left rows first, right rows
	// after, relative order preserved — the children's segments stay
	// sorted without re-sorting.
	stablePartition(idx[lo:hi], k, ws.left, ws.partL, ws.partR)
	splitL := depth+1 < cfg.MaxDepth && k >= 2*cfg.MinLeaf
	splitR := depth+1 < cfg.MaxDepth && (hi-lo)-k >= 2*cfg.MinLeaf
	if splitL || splitR {
		for _, order := range orders {
			stablePartition(order[lo:hi], k, ws.left, ws.partL, ws.partR)
		}
	}
	ls, rs := hs, hs
	if hist && !sample {
		ls, rs = 2*depth+1, 2*depth+2
		ws.reserveHist(rs + 1)
		small, ss, smallSplits, bs, bigSplits := idx[lo:lo+k], ls, splitL, rs, splitR
		if 2*k > hi-lo {
			small, ss, smallSplits, bs, bigSplits = idx[lo+k:hi], rs, splitR, ls, splitL
		}
		if smallSplits || bigSplits {
			ws.fillHist(fr, feats, small, ss)
		}
		if bigSplits {
			ws.subHist(bs, hs, ss)
		}
	}
	node.left = growFrame(fr, orders, idx, lo, lo+k, depth+1, ls, cfg, rng, clf, nClass, ws)
	node.right = growFrame(fr, orders, idx, lo+k, hi, depth+1, rs, cfg, rng, clf, nClass, ws)
	return node
}

// stablePartition reorders seg so positions marked left (left[p] == 1,
// k of them) come first, both sides keeping their relative order.
// Branch-free: every position is written to both gather buffers (each
// at least len(seg) long) and only the cursor of its side advances.
func stablePartition(seg []int32, k int, left []uint8, lbuf, rbuf []int32) {
	li, ri := 0, 0
	for _, p := range seg {
		b := int(left[p])
		lbuf[li] = p
		rbuf[ri] = p
		li += b
		ri += 1 - b
	}
	copy(seg[:k], lbuf[:k])
	copy(seg[k:], rbuf[:ri])
}

func pure(y []float64, idx []int32) bool {
	for _, i := range idx[1:] {
		if y[i] != y[idx[0]] {
			return false
		}
	}
	return true
}

// meanAt averages y over the positions in idx.
func meanAt(y []float64, idx []int32) float64 {
	if len(idx) == 0 {
		return 0
	}
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func classProba(y []float64, idx []int32, nClass int) []float64 {
	return classProbaInto(make([]float64, nClass), y, idx)
}

// classProbaInto tallies normalized class counts into p (len(p) is the
// class count), for callers reusing a scratch buffer.
func classProbaInto(p []float64, y []float64, idx []int32) []float64 {
	nClass := len(p)
	var tw float64
	for _, i := range idx {
		c := int(y[i])
		if c >= 0 && c < nClass {
			p[c]++
			tw++
		}
	}
	if tw > 0 {
		for c := range p {
			p[c] /= tw
		}
	}
	return p
}

// giniAt is the Gini impurity of the class labels at the positions in
// idx.
func giniAt(y []float64, idx []int32, nClass int, ws *treeScratch) float64 {
	if cap(ws.counts) < nClass {
		ws.counts = make([]float64, nClass)
	}
	p := classProbaInto(zeroed(ws.counts[:nClass]), y, idx)
	g := 1.0
	for _, pc := range p {
		g -= pc * pc
	}
	return g
}

func zeroed(xs []float64) []float64 {
	for i := range xs {
		xs[i] = 0
	}
	return xs
}

// bestSplitOrdered scans the node's presorted order of feature f for
// the impurity-gain maximizing threshold, in a single pass with running
// statistics — no sort, no pair materialization. A classification gain
// is the Gini drop below parentImp; a regression gain is scored from
// exact sums of the tree's quantised targets (splitScore), and
// parentImp is not read. NaN sorts last and the scan ends at the first
// one: a threshold beside NaN would itself be NaN, and descend sends
// NaN right under any threshold.
func bestSplitOrdered(fr *frame, order []int32, f, minLeaf int, parentImp float64, clf bool, nClass int, ws *treeScratch) (gain, thresh float64, ok bool) {
	col := fr.cols[f]
	y := fr.y
	n := len(order)
	if clf {
		if cap(ws.leftCnt) < nClass {
			ws.leftCnt = make([]float64, nClass)
			ws.rightCnt = make([]float64, nClass)
		}
		leftCnt := zeroed(ws.leftCnt[:nClass])
		rightCnt := zeroed(ws.rightCnt[:nClass])
		var lw, rw float64
		for _, p := range order {
			rightCnt[clampClass(int(y[p]), nClass)]++
			rw++
		}
		best := -1.0
		for j := 0; j < n-1; j++ {
			p, next := order[j], col[order[j+1]]
			if next != next {
				break
			}
			c := clampClass(int(y[p]), nClass)
			leftCnt[c]++
			rightCnt[c]--
			lw++
			rw--
			if col[p] == next || j+1 < minLeaf || n-j-1 < minLeaf {
				continue
			}
			g := parentImp - (lw*gini(leftCnt, lw)+rw*gini(rightCnt, rw))/(lw+rw)
			if g > best {
				best = g
				thresh = (col[p] + next) / 2
			}
		}
		if best <= 0 {
			return 0, 0, false
		}
		return best, thresh, true
	}

	// Regression: exact sums of the quantised targets.
	yq := ws.yq
	var t int64
	for _, p := range order {
		t += yq[p]
	}
	var l int64
	best := 0.0
	for j := 0; j < n-1; j++ {
		p, next := order[j], col[order[j+1]]
		if next != next {
			break
		}
		l += yq[p]
		if col[p] == next || j+1 < minLeaf || n-j-1 < minLeaf {
			continue
		}
		if g := splitScore(l, t, j+1, n); g > best {
			best = g
			thresh = (col[p] + next) / 2
		}
	}
	if best <= 0 {
		return 0, 0, false
	}
	return ws.varianceGain(best, n), thresh, true
}

// prepareLevels sizes the class-count scratch for a leveled fit and
// caches each position's class, clamped as bestSplitOrdered clamps it.
func (ws *treeScratch) prepareLevels(y []float64, nClass int) {
	if cap(ws.leftCnt) < nClass {
		ws.leftCnt = make([]float64, nClass)
		ws.rightCnt = make([]float64, nClass)
	}
	if cap(ws.hist) < maxLevels*nClass {
		ws.hist = make([]float64, maxLevels*nClass)
	}
	if cap(ws.cls) < len(y) {
		ws.cls = make([]int32, len(y))
	}
	cls := ws.cls[:len(y)]
	for p, v := range y {
		cls[p] = int32(clampClass(int(v), nClass))
	}
}

// bestSplitLevels is bestSplitOrdered's classification scan over a
// leveled frame, bit for bit. It reads the node off its ascending
// segment seg instead of a presorted order: one pass counts classes per
// value level, then the non-empty levels are scanned in ascending
// order. The ordered scan's candidates are exactly the boundaries
// between non-empty levels, where its running counts equal the
// cumulative level counts here. Counts are integer-valued floats, so
// they are exact in any summation order, and every gain, and with it
// the first-best choice, comes out the same. A boundary's threshold is
// the midpoint of the two level values, which is the ordered scan's
// midpoint of the two rows beside the boundary: rows of one level
// compare equal, and the only equal floats with different bits, ±0,
// give the same sum with a nonzero neighbour.
func bestSplitLevels(fr *frame, f int, seg []int32, minLeaf int, parentImp float64, nClass int, ws *treeScratch) (gain, thresh float64, ok bool) {
	lv, vals, cls := fr.lv[f], fr.lvals[f], ws.cls
	hist := zeroed(ws.hist[:len(vals)*nClass])
	for _, p := range seg {
		hist[int(lv[p])*nClass+int(cls[p])]++
	}
	leftCnt := zeroed(ws.leftCnt[:nClass])
	rightCnt := zeroed(ws.rightCnt[:nClass])
	for l := 0; l < len(hist); l += nClass {
		for c, k := range hist[l : l+nClass] {
			rightCnt[c] += k
		}
	}
	lw, rw := 0.0, float64(len(seg))
	best := -1.0
	prev := -1
	for l := range vals {
		row := hist[l*nClass : (l+1)*nClass]
		var m float64
		for _, k := range row {
			m += k
		}
		if m == 0 {
			continue
		}
		if prev >= 0 && lw >= float64(minLeaf) && rw >= float64(minLeaf) {
			g := parentImp - (lw*gini(leftCnt, lw)+rw*gini(rightCnt, rw))/(lw+rw)
			if g > best {
				best = g
				thresh = (vals[prev] + vals[l]) / 2
			}
		}
		for c, k := range row {
			leftCnt[c] += k
			rightCnt[c] -= k
		}
		lw += m
		rw -= m
		prev = l
	}
	if best <= 0 {
		return 0, 0, false
	}
	return best, thresh, true
}

// prepareHist lays out the histogram blocks of a leveled regression
// fit. Feature f's levels take entries hoff[f] onward, packed, and a
// block is maxLevels entries longer than the levels of all features, so
// that fillHist can view any feature's levels as a [maxLevels] array.
//
// A tree that samples features uses block 0 only, refilled by every
// node. Otherwise the root holds block 0 and the children of a node at
// depth d hold blocks 2d+1 (left) and 2d+2 (right), made room for by
// reserveHist when the node splits. A node's block is dead once its
// children's are built, and a right child's block outlives its left
// sibling's subtree, whose blocks all lie above 2d+2.
func (ws *treeScratch) prepareHist(fr *frame) {
	ws.hoff = ws.hoff[:0]
	o := 0
	for _, vals := range fr.lvals {
		ws.hoff = append(ws.hoff, o)
		o += len(vals)
	}
	ws.hoff = append(ws.hoff, o)
	ws.hstride = o + maxLevels
	ws.reserveHist(1)
}

// reserveHist makes room for blocks 0 … k−1, keeping those already
// built. The buffers only grow, so once a fit has reached its deepest
// split, later fits of the same shape allocate nothing here.
func (ws *treeScratch) reserveHist(k int) {
	if need := k * ws.hstride; len(ws.hsum) < need {
		ws.hsum = append(ws.hsum, make([]int64, need-len(ws.hsum))...)
		ws.hcnt = append(ws.hcnt, make([]int32, need-len(ws.hcnt))...)
	}
}

// fillHist builds block s over the rows of seg for the features feats:
// one pass over seg per feature adds each position's quantised target
// and a count into its value level's entry.
func (ws *treeScratch) fillHist(fr *frame, feats []int, seg []int32, s int) {
	sum := ws.hsum[s*ws.hstride : (s+1)*ws.hstride]
	cnt := ws.hcnt[s*ws.hstride : (s+1)*ws.hstride]
	for _, f := range feats {
		lv := fr.lv[f]
		yq := ws.yq[:len(lv)]
		o := ws.hoff[f]
		sums, cnts := (*[maxLevels]int64)(sum[o:]), (*[maxLevels]int32)(cnt[o:])
		clear(sums[:ws.hoff[f+1]-o])
		clear(cnts[:ws.hoff[f+1]-o])
		for _, p := range seg {
			l := lv[p] & (maxLevels - 1)
			sums[l] += yq[p]
			cnts[l]++
		}
	}
}

// subHist sets block dst to block a minus block b, entry for entry.
func (ws *treeScratch) subHist(dst, a, b int) {
	m, st := ws.hoff[len(ws.hoff)-1], ws.hstride
	ds, as, bs := ws.hsum[dst*st:dst*st+m], ws.hsum[a*st:a*st+m], ws.hsum[b*st:b*st+m]
	for i := range ds {
		ds[i] = as[i] - bs[i]
	}
	dc, ac, bc := ws.hcnt[dst*st:dst*st+m], ws.hcnt[a*st:a*st+m], ws.hcnt[b*st:b*st+m]
	for i := range dc {
		dc[i] = ac[i] - bc[i]
	}
}

// scanHist is bestSplitOrdered's regression scan over a leveled frame,
// bit for bit: it scans feature f's levels in block s, which holds a
// node of n rows, and the non-empty levels in ascending order. The
// ordered scan's candidates are exactly the boundaries between
// non-empty levels, where its running sum and count equal the
// cumulative level sums and counts here. Integer sums are exact in any
// order, so every candidate's score, and with it the first-best choice,
// comes out the same. The threshold is the midpoint of the two level
// values, as in bestSplitLevels.
func (ws *treeScratch) scanHist(fr *frame, f, s, n, minLeaf int) (gain, thresh float64, ok bool) {
	vals := fr.lvals[f]
	o := s*ws.hstride + ws.hoff[f]
	sum, cnt := ws.hsum[o:o+len(vals)], ws.hcnt[o:o+len(vals)]
	var t int64
	for _, v := range sum {
		t += v
	}
	var l int64
	nl := 0
	best := 0.0
	prev := -1
	for lev, c := range cnt {
		if c == 0 {
			continue
		}
		if prev >= 0 && nl >= minLeaf && n-nl >= minLeaf {
			if g := splitScore(l, t, nl, n); g > best {
				best = g
				thresh = (vals[prev] + vals[lev]) / 2
			}
		}
		l += sum[lev]
		nl += int(c)
		prev = lev
	}
	if best <= 0 {
		return 0, 0, false
	}
	return ws.varianceGain(best, n), thresh, true
}

// splitScore scores a regression split from exact quantised target
// sums: the left side holds nl of the node's n rows and sums to l, the
// node sums to t. It returns L²/n_L + R²/n_R − T²/n, which is n times the variance
// the split removes, in squared quantised units (Σy² cancels; this is
// LightGBM's G²/H gain with unit hessians, Ke et al., NeurIPS 2017).
// It depends only on which rows fall on each side, never on an order.
func splitScore(l, t int64, nl, n int) float64 {
	fl, fr, ft := float64(l), float64(t-l), float64(t)
	return fl*fl/float64(nl) + fr*fr/float64(n-nl) - ft*ft/float64(n)
}

// quantize converts the tree's regression targets to integers once,
// into ws.yq: yq = round(y·2^qshift), where qshift = k − e, e is the
// binary exponent of max|y| (2^e ≤ max|y| < 2^(e+1)) and k is 40, less
// one per doubling of len(y) past 2^22 (quantBits). Then |y·2^qshift| <
// 2^(k+1), the multiplies by powers of two are exact wherever the
// product can round to a nonzero integer, and
//
//	|yq·2^-qshift − y| ≤ 2^-(qshift+1) ≤ 2^-(k+1)·max|y|,
//
// that is 2^-41·max|y| below 2^22 rows. Any sum of up to len(y)
// quantised targets is below 2^63 in magnitude, so every node's sums
// are exact. It reports false, converting nothing, when a target is
// NaN or infinite: the conversion of a non-finite float to an integer
// is implementation-defined in Go.
func (ws *treeScratch) quantize(y []float64) bool {
	m := 0.0
	for _, v := range y {
		m = max(m, math.Abs(v)) // NaN if any v is NaN
	}
	return ws.quantizeMax(y, m)
}

// quantizeMax is quantize for a caller that has m = max|y| in hand, NaN
// when some y is NaN: boosting takes it while writing each stage's
// targets.
func (ws *treeScratch) quantizeMax(y []float64, m float64) bool {
	if math.IsNaN(m) || math.IsInf(m, 0) {
		return false
	}
	if cap(ws.yq) < len(y) {
		ws.yq = make([]int64, len(y))
	}
	ws.yq = ws.yq[:len(y)]
	yq := ws.yq
	ws.qshift = quantBits(len(y))
	if m > 0 {
		ws.qshift -= math.Ilogb(m)
	}
	// 2^qshift as two normal factors: 2^qshift alone overflows when
	// max|y| < 2^-983.
	s1 := math.Ldexp(1, ws.qshift/2)
	s2 := math.Ldexp(1, ws.qshift-ws.qshift/2)
	for p, v := range y {
		yq[p] = int64(math.Round(v * s1 * s2))
	}
	return true
}

// quantBits is k in quantize for n targets: 40, or 62 − bits.Len(n)
// once n reaches 2^22, so that n·2^(k+1) < 2^63.
func quantBits(n int) int {
	return min(40, 62-bits.Len(uint(n)))
}

// varianceGain converts a node's best split score to the variance it
// removes, in the targets' units: score/n scaled back by 2^-2·qshift.
// Gains compared across features, and against growFrame's 1e-12
// margin, are in these units.
func (ws *treeScratch) varianceGain(score float64, n int) float64 {
	return math.Ldexp(score/float64(n), -2*ws.qshift)
}

// clampClass maps out-of-range labels into [0, nClass): a fixed model
// must tolerate noisy inputs (e.g. synthetic rows with labels outside the
// training classes) without panicking.
func clampClass(c, nClass int) int {
	if c < 0 {
		return 0
	}
	if c >= nClass {
		return nClass - 1
	}
	return c
}

func gini(cnt []float64, total float64) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, c := range cnt {
		p := c / total
		g -= p * p
	}
	return g
}

func argmax(xs []float64) int {
	best, bv := 0, math.Inf(-1)
	for i, x := range xs {
		if x > bv {
			bv, best = x, i
		}
	}
	return best
}

// FeatureImportances accumulates impurity-weighted split counts per
// feature, normalized to sum to 1 (scikit-learn style). Used by the
// SkSFM baseline.
func treeImportances(n *treeNode, nf int, acc []float64) {
	if n == nil || n.leaf {
		return
	}
	acc[n.feature] += float64(n.nSamples)
	treeImportances(n.left, nf, acc)
	treeImportances(n.right, nf, acc)
}

// Importances returns normalized split importances of the regressor.
func (t *TreeRegressor) Importances(nf int) []float64 {
	acc := make([]float64, nf)
	treeImportances(t.root, nf, acc)
	normalizeSum(acc)
	return acc
}

// Importances returns normalized split importances of the classifier.
func (t *TreeClassifier) Importances(nf int) []float64 {
	acc := make([]float64, nf)
	treeImportances(t.root, nf, acc)
	normalizeSum(acc)
	return acc
}

func normalizeSum(xs []float64) {
	var s float64
	for _, x := range xs {
		s += x
	}
	if s == 0 {
		return
	}
	for i := range xs {
		xs[i] /= s
	}
}
