package ml

import "sort"

// frame is the columnar fitting substrate every learner trains on: the
// feature matrix in column-major form, the target vector, and one
// presorted position order per feature. Both data routes converge here —
// a row-major *Dataset transposes and sorts once per fit, the
// Matrix/View fast path gathers encoded columns and derives the orders
// from the space-level presorted ranks by counting — so a view fit and a
// dataset fit of the same numbers grow bit-identical trees by
// construction: (value, position) is a total order, hence every correct
// construction yields the same permutation, and all downstream growth is
// shared code. Trees, classification forests and boosting then read
// value levels off the orders (readLevels); a leveled frame is grown
// from its levels alone.
type frame struct {
	cols [][]float64 // [feature][position]
	y    []float64   // [position]
	n    int
	nf   int
	// base[f] holds positions 0..n-1 sorted ascending by
	// (cols[f][p], p); growth works on copies it partitions in place.
	base [][]int32
	// leveled marks a frame whose every feature has at most maxLevels
	// values: lv[f][p] is the value level of position p and lvals[f][l]
	// the value of level l, ascending; a level may hold no position.
	// Growth reads only lv and lvals, never base or cols, so it copies
	// and partitions no orders (see bestSplitLevels for
	// classification, the histogram blocks of growFrame for
	// regression); a leveled bootstrap resample leaves base and cols
	// unfilled, and a 0/1 frame (frameFromCols) has no orders and
	// aliases the caller's columns.
	leveled bool
	lv      [][]uint8
	lvals   [][]float64

	// Backing slabs, retained across the pool so a recycled frame of
	// the same shape reslices instead of reallocating. ybuf backs y
	// only for frames that own their target (ownY); frames built over
	// a caller's y alias it and putFrame drops the alias.
	colBuf  []float64
	ordBuf  []int32
	ybuf    []float64
	lvBuf   []uint8
	lvalBuf []float64
}

// maxLevels is the most values a feature of a leveled frame may have,
// so that a node's level × class count histogram, and its level target
// sums, stay small enough to clear for every feature it scans.
const maxLevels = 16

// takeFrame pops a frame off the scratch's free list, or makes one.
func (ws *treeScratch) takeFrame() *frame {
	if k := len(ws.frameFree); k > 0 {
		fr := ws.frameFree[k-1]
		ws.frameFree = ws.frameFree[:k-1]
		fr.leveled = false
		return fr
	}
	return &frame{}
}

// getFrame hands out a frame with cols/base carved from pooled slabs,
// recycling the scratch's free list — the successor of the former
// newFrame allocation, which was the largest remaining per-valuation
// allocation of a discovery run.
func (ws *treeScratch) getFrame(nf, n int) *frame {
	fr := ws.takeFrame()
	fr.n, fr.nf = n, nf
	if need := nf * n; cap(fr.colBuf) < need {
		fr.colBuf = make([]float64, need)
		fr.ordBuf = make([]int32, need)
	}
	if cap(fr.cols) < nf {
		fr.cols = make([][]float64, nf)
	}
	if cap(fr.base) < nf {
		fr.base = make([][]int32, nf)
	}
	fr.cols = fr.cols[:nf]
	fr.base = fr.base[:nf]
	for f := 0; f < nf; f++ {
		fr.cols[f] = fr.colBuf[f*n : (f+1)*n]
		fr.base[f] = fr.ordBuf[f*n : (f+1)*n]
	}
	fr.y = nil
	return fr
}

// putFrame returns a frame to the scratch's free list once its fit is
// done. Aliases of the caller's data are dropped first: frames built
// by frameFromRows alias the caller's y, 0/1 frames its columns too,
// and the pool must not retain another fit's data. (getFrame reslices
// every column from the slab, so clearing them costs a pooled frame
// nothing.)
func (ws *treeScratch) putFrame(fr *frame) {
	if fr == nil {
		return
	}
	fr.y = nil
	clear(fr.cols)
	ws.frameFree = append(ws.frameFree, fr)
}

// carveLevels slices the level tables out of the frame's pooled slabs:
// lv[f] holds n positions, lvals[f] is empty with room for maxLevels.
func (fr *frame) carveLevels() {
	nf, n := fr.nf, fr.n
	if cap(fr.lvBuf) < nf*n {
		fr.lvBuf = make([]uint8, nf*n)
	}
	if cap(fr.lvalBuf) < nf*maxLevels {
		fr.lvalBuf = make([]float64, nf*maxLevels)
	}
	fr.lv, fr.lvals = fr.lv[:0], fr.lvals[:0]
	for f := 0; f < nf; f++ {
		lo := f * maxLevels
		fr.lv = append(fr.lv, fr.lvBuf[f*n:(f+1)*n])
		fr.lvals = append(fr.lvals, fr.lvalBuf[lo:lo:lo+maxLevels])
	}
}

// readLevels makes fr a leveled frame when every feature qualifies:
// at most maxLevels values, no NaN, and a base order sorted by
// (level, position). Levels are read off each presorted order with the
// ordered scan's own != test, so level boundaries are exactly that
// scan's candidate thresholds. Any other frame stays on the ordered
// path.
func (fr *frame) readLevels() {
	fr.carveLevels()
	for f := 0; f < fr.nf; f++ {
		if !fr.readFeatureLevels(f) {
			return
		}
	}
	fr.leveled = true
}

// readFeatureLevels fills lv[f] and lvals[f] from base[f], reporting
// whether feature f qualifies for a leveled frame.
func (fr *frame) readFeatureLevels(f int) bool {
	col, lv := fr.cols[f], fr.lv[f]
	vals := fr.lvals[f]
	last := int32(-1)
	for _, p := range fr.base[f] {
		v := col[p]
		switch {
		case v != v: // NaN
			return false
		case len(vals) > 0 && v == vals[len(vals)-1]:
			if p < last {
				return false
			}
		case len(vals) == maxLevels || len(vals) > 0 && v < vals[len(vals)-1]:
			return false
		default:
			vals = append(vals, v)
		}
		lv[p] = uint8(len(vals) - 1)
		last = p
	}
	fr.lvals[f] = vals
	return true
}

// ownY points the frame's target at its own pooled slab (resized to
// n) for constructions that fill y rather than alias a caller's
// slice.
func (fr *frame) ownY(n int) []float64 {
	if cap(fr.ybuf) < n {
		fr.ybuf = make([]float64, n)
	}
	fr.y = fr.ybuf[:n]
	return fr.y
}

// frameFromRows builds the fitting frame of a row-major dataset:
// transpose once, presort every feature once. The per-node sorts of the
// former CART implementation collapse into this single pass.
func frameFromRows(X [][]float64, y []float64, ws *treeScratch) *frame {
	fr := frameFromRowsRaw(X, y, ws)
	for f := 0; f < fr.nf; f++ {
		sortOrder(fr.cols[f], fr.base[f])
	}
	return fr
}

// frameFromRowsRaw transposes without deriving the presorted orders,
// for consumers that re-quantize the columns first (HistGBM) and would
// throw the orders away.
func frameFromRowsRaw(X [][]float64, y []float64, ws *treeScratch) *frame {
	n := len(X)
	nf := 0
	if n > 0 {
		nf = len(X[0])
	}
	fr := ws.getFrame(nf, n)
	fr.y = y
	for i, r := range X {
		for f := 0; f < nf; f++ {
			fr.cols[f][i] = r[f]
		}
	}
	return fr
}

// frameFromCols builds the fitting frame of column-major features:
// cols[f][p] is feature f of example p. The transpose of frameFromRows
// disappears — columns copy straight into the pooled slabs — and the
// presorted orders are derived the same way, so a column fit and a row
// fit of the same numbers grow bit-identical trees. Columns that hold
// only 0 and 1 (bitmap literals, the surrogate's features) make a
// leveled frame with levels 0 and 1 instead, read straight off the
// columns: no copy and no orders. frameFromRows never takes this
// route, so FitData on a *Dataset stays the generic reference
// MultiOutputGBM.FitColsTasks is tested against.
func frameFromCols(cols [][]float64, y []float64, ws *treeScratch) *frame {
	nf := len(cols)
	n := len(y)
	if binaryCols(cols, n) {
		fr := ws.takeFrame()
		fr.n, fr.nf, fr.y = n, nf, y
		fr.cols = fr.cols[:0]
		for _, c := range cols {
			fr.cols = append(fr.cols, c[:n])
		}
		fr.carveLevels()
		for f, c := range fr.cols {
			lv := fr.lv[f]
			for p, x := range c {
				lv[p] = uint8(x)
			}
			fr.lvals[f] = append(fr.lvals[f], 0, 1)
		}
		fr.leveled = true
		return fr
	}
	fr := ws.getFrame(nf, n)
	fr.y = y
	for f, c := range cols {
		copy(fr.cols[f], c)
		sortOrder(fr.cols[f], fr.base[f])
	}
	return fr
}

// binaryCols reports whether the first n values of every column are
// 0 or 1.
func binaryCols(cols [][]float64, n int) bool {
	for _, c := range cols {
		for _, x := range c[:n] {
			if x != 0 && x != 1 {
				return false
			}
		}
	}
	return true
}

// sortOrder fills order with positions 0..n-1 sorted by
// (vals[p], p) — the unique total order every frame construction must
// agree on. NaN sorts after every number, as the Matrix ranks it.
func sortOrder(vals []float64, order []int32) {
	for i := range order {
		order[i] = int32(i)
	}
	s := posSorter{vals: vals, pos: order}
	sort.Sort(&s)
}

// posSorter sorts positions by (value, position) through a concrete
// sort.Interface, avoiding sort.Slice's reflection allocations.
type posSorter struct {
	vals []float64
	pos  []int32
}

func (s *posSorter) Len() int { return len(s.pos) }
func (s *posSorter) Less(i, j int) bool {
	vi, vj := s.vals[s.pos[i]], s.vals[s.pos[j]]
	switch {
	case vi < vj:
		return true
	case vi > vj:
		return false
	}
	// Equal, or a NaN: NaN sorts after every number, and ties (two
	// NaNs included) go by position.
	if iNaN, jNaN := vi != vi, vj != vj; iNaN != jNaN {
		return jNaN
	}
	return s.pos[i] < s.pos[j]
}
func (s *posSorter) Swap(i, j int) { s.pos[i], s.pos[j] = s.pos[j], s.pos[i] }

// Data is the fitting-facing view of a dataset: the row/column
// accessors metrics need plus the columnar frame learners train on.
// Both *Dataset (the materialize-and-encode route) and *View (the
// zero-materialization Matrix route) implement it, so a task's
// evaluation body is written once and the two routes stay equal by
// sharing it. The interface is sealed to this package by the unexported
// frame constructor.
type Data interface {
	// NumRows returns the number of examples.
	NumRows() int
	// NumFeatures returns the feature count.
	NumFeatures() int
	// SplitData partitions into train and test with the same
	// deterministic shuffle as Dataset.Split.
	SplitData(testFrac float64, seed int64) (train, test Data)
	// Label returns the target of example i.
	Label(i int) float64
	// Row writes the feature vector of example i into dst (resliced to
	// the feature count) and returns it.
	Row(i int, dst []float64) []float64
	// Col writes the values of feature f into dst (resliced to the row
	// count) and returns it.
	Col(f int, dst []float64) []float64

	// buildFrame produces the columnar fitting frame; buildRawFrame
	// skips the per-feature presort for consumers that re-quantize the
	// columns before fitting.
	buildFrame(ws *treeScratch) *frame
	buildRawFrame(ws *treeScratch) *frame
}

// Labels gathers the full target vector of a data view.
func Labels(d Data) []float64 {
	out := make([]float64, d.NumRows())
	for i := range out {
		out[i] = d.Label(i)
	}
	return out
}

// gatherRows materializes the rows of a data view with a single backing
// slab, for learners that train on row-major input (linear models).
func gatherRows(d Data) [][]float64 {
	n, nf := d.NumRows(), d.NumFeatures()
	buf := make([]float64, n*nf)
	out := make([][]float64, n)
	for i := range out {
		out[i] = d.Row(i, buf[i*nf:(i+1)*nf])
	}
	return out
}

// Data implementation for the row-major Dataset.

// SplitData implements Data by delegating to Split.
func (d *Dataset) SplitData(testFrac float64, seed int64) (train, test Data) {
	a, b := d.Split(testFrac, seed)
	return a, b
}

// Label implements Data.
func (d *Dataset) Label(i int) float64 { return d.Y[i] }

// Row implements Data.
func (d *Dataset) Row(i int, dst []float64) []float64 {
	dst = dst[:len(d.X[i])]
	copy(dst, d.X[i])
	return dst
}

// Col implements Data.
func (d *Dataset) Col(f int, dst []float64) []float64 {
	dst = dst[:len(d.X)]
	for i, r := range d.X {
		dst[i] = r[f]
	}
	return dst
}

func (d *Dataset) buildFrame(ws *treeScratch) *frame {
	return frameFromRows(d.X, d.Y, ws)
}

func (d *Dataset) buildRawFrame(ws *treeScratch) *frame {
	return frameFromRowsRaw(d.X, d.Y, ws)
}
