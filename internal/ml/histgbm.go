package ml

import (
	"sort"
)

// HistGBMConfig controls histogram-based gradient boosting — the stand-in
// for LightGBM (LGC_mental, T4). Features are quantized into at most
// NumBins bins before boosting; split search then scans bin boundaries
// only, the core LightGBM trick.
type HistGBMConfig struct {
	GBM     GBMConfig
	NumBins int // default 32
}

// HistGBMClassifier is a binned binary gradient-boosted classifier.
type HistGBMClassifier struct {
	Config HistGBMConfig
	inner  GBMClassifier
	bins   [][]float64 // per-feature bin upper edges
}

// Fit quantizes X then trains the boosted classifier.
func (h *HistGBMClassifier) Fit(X [][]float64, y []float64) {
	nb := h.Config.NumBins
	if nb <= 0 {
		nb = 32
	}
	h.bins = computeBins(X, nb)
	bx := binAll(X, h.bins)
	h.inner = GBMClassifier{Config: h.Config.GBM}
	h.inner.Fit(bx, y)
}

// FitData quantizes a columnar data view then trains the boosted
// classifier, never materializing row-major input: bin edges come from
// the raw gathered columns (no presort — binning would discard it),
// and the binned frame's presorted orders are the unique (value,
// position) sort of the bin ids — identical to what Fit produces on
// the same numbers.
func (h *HistGBMClassifier) FitData(d Data) {
	nb := h.Config.NumBins
	if nb <= 0 {
		nb = 32
	}
	ws := getScratch()
	fr := d.buildRawFrame(ws)
	h.bins = computeBinsCols(fr.cols, nb)
	binFrame(fr, h.bins, &ws.cnt)
	h.inner = GBMClassifier{Config: h.Config.GBM}
	h.inner.fitFrame(fr, ws)
	ws.putFrame(fr)
	putScratch(ws)
}

// binFrame replaces the frame's columns with their bin ids in place
// and derives each presorted order with one counting pass over the bin
// ids (positions ascending within a bin = the unique (value, position)
// order; a sort would cost O(n log n) for ≤NumBins distinct values).
func binFrame(fr *frame, bins [][]float64, cntBuf *[]int32) {
	for f := 0; f < fr.nf; f++ {
		col := fr.cols[f]
		if f >= len(bins) {
			// Unbinned column (caller supplied a short bins slice, as
			// binRow tolerates): its order must still be derived, or
			// growth would scan an all-zero order.
			sortOrder(col, fr.base[f])
			continue
		}
		nBins := len(bins[f]) + 1
		if cap(*cntBuf) < nBins+1 {
			*cntBuf = make([]int32, nBins+1)
		}
		cnt := (*cntBuf)[:nBins+1]
		for i := range cnt {
			cnt[i] = 0
		}
		for i, v := range col {
			col[i] = float64(searchBins(bins[f], v))
			cnt[int(col[i])]++
		}
		sum := int32(0)
		for b := range cnt {
			c := cnt[b]
			cnt[b] = sum
			sum += c
		}
		for i, v := range col {
			b := int(v)
			fr.base[f][cnt[b]] = int32(i)
			cnt[b]++
		}
	}
}

// PredictProba returns P(y=1 | x).
func (h *HistGBMClassifier) PredictProba(x []float64) float64 {
	var buf [binRowStack]float64
	return h.inner.PredictProba(binRowInto(withLen(buf[:], len(x)), x, h.bins))
}

// Predict returns the hard 0/1 label.
func (h *HistGBMClassifier) Predict(x []float64) float64 {
	var buf [binRowStack]float64
	return h.inner.Predict(binRowInto(withLen(buf[:], len(x)), x, h.bins))
}

// binRowStack is the widest row predictions bin on the stack; wider
// rows take a heap buffer. The model is shared by concurrent readers,
// so it holds no buffer of its own.
const binRowStack = 32

// withLen returns buf[:n], or a new slice when buf is too short.
func withLen(buf []float64, n int) []float64 {
	if n > len(buf) {
		return make([]float64, n)
	}
	return buf[:n]
}

// Importances proxies the inner model's importances.
func (h *HistGBMClassifier) Importances(nf int) []float64 { return h.inner.Importances(nf) }

// computeBins derives per-feature quantile bin edges.
func computeBins(X [][]float64, nb int) [][]float64 {
	if len(X) == 0 {
		return nil
	}
	nf := len(X[0])
	bins := make([][]float64, nf)
	col := make([]float64, len(X))
	for f := 0; f < nf; f++ {
		for i := range X {
			col[i] = X[i][f]
		}
		bins[f] = quantileEdges(col, nb)
	}
	return bins
}

// computeBinsCols is computeBins over column-major input; identical
// edges since each column holds the same values in the same row order.
func computeBinsCols(cols [][]float64, nb int) [][]float64 {
	bins := make([][]float64, len(cols))
	for f, col := range cols {
		if len(col) == 0 {
			continue
		}
		bins[f] = quantileEdges(col, nb)
	}
	return bins
}

// quantileEdges returns the deduplicated equal-frequency bin edges of
// one column.
func quantileEdges(col []float64, nb int) []float64 {
	sorted := append([]float64(nil), col...)
	sort.Float64s(sorted)
	var edges []float64
	for b := 1; b < nb; b++ {
		q := sorted[b*len(sorted)/nb]
		if len(edges) == 0 || q != edges[len(edges)-1] {
			edges = append(edges, q)
		}
	}
	return edges
}

// searchBins maps a raw value to its bin id.
func searchBins(edges []float64, v float64) int { return sort.SearchFloat64s(edges, v) }

func binAll(X [][]float64, bins [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, r := range X {
		out[i] = binRow(r, bins)
	}
	return out
}

// binRow maps a raw row to bin indexes (as floats, so trees split on them).
func binRow(x []float64, bins [][]float64) []float64 {
	return binRowInto(make([]float64, len(x)), x, bins)
}

// binRowInto is binRow into out, which has len(x) slots.
func binRowInto(out, x []float64, bins [][]float64) []float64 {
	for f, v := range x {
		if f >= len(bins) {
			out[f] = v
			continue
		}
		out[f] = float64(searchBins(bins[f], v))
	}
	return out
}
