package ml

import (
	"math"
	"math/rand"
)

// ForestConfig controls random-forest training.
type ForestConfig struct {
	NumTrees    int // default 20
	MaxDepth    int // default 8
	MinLeaf     int
	MaxFeatures int // default sqrt(#features) for classification, #features/3 for regression
	Seed        int64
}

func (c ForestConfig) withDefaults() ForestConfig {
	if c.NumTrees <= 0 {
		c.NumTrees = 20
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 8
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	return c
}

// ForestClassifier is a bootstrap-aggregated ensemble of CART
// classification trees — the paper's RF_house model (T2).
type ForestClassifier struct {
	Config   ForestConfig
	NumClass int
	trees    []*TreeClassifier
}

// FitData trains the forest on a columnar data view.
func (f *ForestClassifier) FitData(d Data) {
	ws := getScratch()
	fr := d.buildFrame(ws)
	fr.readLevels()
	f.fitFrame(fr, ws)
	ws.putFrame(fr)
	putScratch(ws)
}

func (f *ForestClassifier) fitFrame(fr *frame, ws *treeScratch) {
	cfg := f.Config.withDefaults()
	if f.NumClass <= 0 {
		f.NumClass = countClasses(fr.y)
	}
	mf := cfg.MaxFeatures
	if mf <= 0 && fr.nf > 0 {
		mf = int(math.Sqrt(float64(fr.nf)))
		if mf < 1 {
			mf = 1
		}
	}
	rng := newRand(cfg.Seed)
	f.trees = make([]*TreeClassifier, cfg.NumTrees)
	bs := newBootstrapper(fr, ws)
	for t := 0; t < cfg.NumTrees; t++ {
		bfr := bs.resample(rng)
		tree := &TreeClassifier{
			Config: TreeConfig{
				MaxDepth:    cfg.MaxDepth,
				MinLeaf:     cfg.MinLeaf,
				MaxFeatures: mf,
				Seed:        rng.Int63(),
			},
			NumClass: f.NumClass,
		}
		tree.fitFrame(bfr, ws)
		f.trees[t] = tree
	}
	ws.putFrame(bs.out)
}

// probaInto averages the trees' class probabilities into p, which holds
// NumClass zeros.
func (f *ForestClassifier) probaInto(p, x []float64) []float64 {
	for _, t := range f.trees {
		tp := t.PredictProba(x)
		for c := range p {
			if c < len(tp) {
				p[c] += tp[c]
			}
		}
	}
	for c := range p {
		p[c] /= float64(len(f.trees))
	}
	return p
}

// Predict returns the majority class. The probabilities are averaged
// on the stack when there are at most eight classes: the model is
// shared by concurrent readers, so it holds no buffer of its own.
func (f *ForestClassifier) Predict(x []float64) float64 {
	var buf [8]float64
	return float64(argmax(f.probaInto(withLen(buf[:], f.NumClass), x)))
}

// ForestRegressor is a bagged ensemble of CART regression trees.
type ForestRegressor struct {
	Config ForestConfig
	trees  []*TreeRegressor
}

// FitData trains the forest on a columnar data view.
func (f *ForestRegressor) FitData(d Data) {
	ws := getScratch()
	fr := d.buildFrame(ws)
	f.fitFrame(fr, ws)
	ws.putFrame(fr)
	putScratch(ws)
}

func (f *ForestRegressor) fitFrame(fr *frame, ws *treeScratch) {
	cfg := f.Config.withDefaults()
	mf := cfg.MaxFeatures
	if mf <= 0 && fr.nf > 0 {
		mf = fr.nf / 3
		if mf < 1 {
			mf = 1
		}
	}
	rng := newRand(cfg.Seed)
	f.trees = make([]*TreeRegressor, cfg.NumTrees)
	bs := newBootstrapper(fr, ws)
	for t := 0; t < cfg.NumTrees; t++ {
		bfr := bs.resample(rng)
		tree := &TreeRegressor{Config: TreeConfig{
			MaxDepth:    cfg.MaxDepth,
			MinLeaf:     cfg.MinLeaf,
			MaxFeatures: mf,
			Seed:        rng.Int63(),
		}}
		tree.fitFrame(bfr, ws)
		f.trees[t] = tree
	}
	ws.putFrame(bs.out)
}

// Predict averages tree outputs.
func (f *ForestRegressor) Predict(x []float64) float64 {
	var s float64
	for _, t := range f.trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.trees))
}

// bootstrapper draws with-replacement resamples of a base frame,
// deriving each resample's presorted feature orders from the base
// frame's dense value ranks in linear time (counting) instead of
// re-sorting, so the resampled frame satisfies the same unique
// (value, position) order invariant as every other frame constructor.
// A leveled base frame's levels are those dense ranks, so its
// resamples are leveled too: each gathers its positions' levels and
// keeps no orders or columns. All buffers — the resampled frame, the
// draw vector, the rank tables, the counting scratch — are reused
// across the ensemble's trees.
type bootstrapper struct {
	base *frame
	out  *frame
	boot []int32 // boot[i] = source position of bootstrap position i
	// rankOf[f][src] is the dense rank of source position src among
	// feature f's sorted values, read off the base order once.
	rankOf [][]int32
	nRank  []int32
	cnt    []int32 // counting-sort scratch
}

func newBootstrapper(fr *frame, ws *treeScratch) *bootstrapper {
	b := &bootstrapper{base: fr, out: ws.getFrame(fr.nf, fr.n)}
	b.out.ownY(fr.n)
	b.boot = make([]int32, fr.n)
	if fr.leveled {
		b.out.carveLevels()
		b.out.leveled = true
		for f, vals := range fr.lvals {
			b.out.lvals[f] = append(b.out.lvals[f], vals...)
		}
		return b
	}
	b.cnt = make([]int32, fr.n+1)
	b.rankOf = make([][]int32, fr.nf)
	b.nRank = make([]int32, fr.nf)
	for f := 0; f < fr.nf; f++ {
		ranks := make([]int32, fr.n)
		col := fr.cols[f]
		r := int32(-1)
		prev := 0.0
		for j, src := range fr.base[f] {
			if j == 0 || col[src] != prev {
				r++
				prev = col[src]
			}
			ranks[src] = r
		}
		b.rankOf[f] = ranks
		b.nRank[f] = r + 1
	}
	return b
}

// resample fills the reusable output frame with one bootstrap draw.
// The returned frame is only valid until the next call.
func (b *bootstrapper) resample(rng *rand.Rand) *frame {
	fr, out := b.base, b.out
	n := fr.n
	if n == 0 {
		return out
	}
	for i := 0; i < n; i++ {
		b.boot[i] = int32(rng.Intn(n))
	}
	// Gather the resampled target and columns, or levels.
	for i, src := range b.boot[:n] {
		out.y[i] = fr.y[src]
	}
	if fr.leveled {
		for f, src := range fr.lv {
			lv := out.lv[f]
			for i, p := range b.boot[:n] {
				lv[i] = src[p]
			}
		}
		return out
	}
	for f := 0; f < fr.nf; f++ {
		bc, sc := out.cols[f], fr.cols[f]
		for i, src := range b.boot[:n] {
			bc[i] = sc[src]
		}
	}
	// Each resampled order is the counting sort of bootstrap positions
	// by (source value rank, position) — exactly the (value, position)
	// total order on the gathered column.
	for f := 0; f < fr.nf; f++ {
		countingOrder(b.rankOf[f], b.boot[:n], out.base[f], &b.cnt, int(b.nRank[f]))
	}
	return out
}
