package ml

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/table"
)

// pinnedFingerprints are the output hashes of every tree family and
// feature score on the fixed inputs of fingerprintOutputs. A speed-up
// that must not move a single output bit leaves them as they are; a
// change that means to move outputs updates them (the failure message
// prints the new table) and says so.
var pinnedFingerprints = map[string]string{
	"fisher/data":                     "e2d013e99dc94c1a",
	"forestclf-levels-3class/fit":     "6b4959d1b15120e6",
	"forestclf-levels-3class/predict": "74cf57e692a162e2",
	"forestclf-levels-minleaf1/data":  "3be11bfec4e5c7f6",
	"forestclf-levels-minleaf1/fit":   "05a98c02e91fafe2",
	"forestclf-levels/data":           "aef2e038dfa025c5",
	"forestclf-levels/fit":            "7f54dab979073f9a",
	"forestclf-t2-60rows/data":        "28c662099764f11b",
	"forestclf/data":                  "ff5b4eb9cedff1f0",
	"forestclf/fit":                   "a70d96a1ea228799",
	"forestreg-levels-60rows/data":    "a3b41e98a2e3d206",
	"forestreg/data":                  "7303d9865d4f1ced",
	"forestreg/fit":                   "8596d588e0c4df39",
	"gbmclf-levels/data":              "972788b79c88d30e",
	"gbmclf-levels/fit":               "b0d25507288ce15e",
	"gbmclf/data":                     "90c20c4d25f4e40f",
	"gbmclf/fit":                      "d782617c116e1811",
	"gbmreg-levels/data":              "0a454ea4d1c1b52a",
	"gbmreg-levels/fit":               "6287abffe2488012",
	"gbmreg-minleaf4/data":            "666200f520f436fb",
	"gbmreg-minleaf4/fitcols":         "12d883a6bf55db12",
	"gbmreg/data":                     "04516efa1788b919",
	"gbmreg/fit":                      "011feb01ba938fe1",
	"histgbm-bins16/data":             "75c40591270d3cee",
	"histgbm-bins16/fit":              "a21ce3a39b1728d2",
	"histgbm-bins16/predict":          "46516dff0d3fa427",
	"histgbm/data":                    "0e89e5547f71e7e8",
	"histgbm/fit":                     "d36835273f0a1852",
	"mi/data":                         "9e1d5725ad28ba98",
	"mi/data-continuous":              "1d5418912bbf0ecc",
	"mi/rows":                         "4a3240cbc801c231",
	"mogbm/fit":                       "5f2edaa10b141067",
	"mogbm/fitcols":                   "5f2edaa10b141067",
	"splitperm/n1-200":                "35c90ce9d01e0e78",
	"treeclf-levels-3class/fit":       "fe94d266f188e14f",
	"treeclf-levels-minleaf1/data":    "96005e58045a7b78",
	"treeclf-levels-minleaf1/fit":     "11a7e6f2a1193e55",
	"treeclf-levels-minleaf7/data":    "bba4b7331178590b",
	"treeclf-levels-minleaf7/fit":     "144aaa81b71cc181",
	"treeclf-levels/data":             "492da08ce09be7c7",
	"treeclf-levels/fit":              "82ef8d7a5e132bd7",
	"treeclf/data":                    "e5f4d83043d87f4b",
	"treeclf/fit":                     "5cb2a9f7c6daf1f0",
	"treereg-levels-minleaf1/data":    "56cf8e77eea5b59f",
	"treereg-levels-minleaf1/fit":     "e94ae762150eb561",
	"treereg-levels-minleaf7/data":    "b9e74d7486cabf75",
	"treereg-levels-minleaf7/fit":     "7f949aae3a14a293",
	"treereg-levels/data":             "94ead15f6b1d1ec4",
	"treereg-levels/fit":              "4121ac1ea692046f",
	"treereg-minleaf5/fit":            "4900260312b6e920",
	"treereg-tie/fit":                 "9d9bc8ffe313f57f",
	"treereg/data":                    "0acfd825b57c3b3d",
	"treereg/fit":                     "966b38cf0f3e8ca6",
}

// fingerprintTable is a seeded 160-row table full of ties: a few-level
// int, a half-step float, a string, a float whose every fourth value
// repeats its predecessor, a column of ±0 and small integers, and
// quarter-rounded regression targets.
func fingerprintTable() *table.Table {
	u := table.New("D_U", table.Schema{
		{Name: "id", Kind: table.KindInt},
		{Name: "a", Kind: table.KindInt},
		{Name: "b", Kind: table.KindFloat},
		{Name: "s", Kind: table.KindString},
		{Name: "c", Kind: table.KindFloat},
		{Name: "z", Kind: table.KindFloat},
		{Name: "yr", Kind: table.KindFloat},
		{Name: "yc", Kind: table.KindInt},
	})
	rng := rand.New(rand.NewSource(43))
	levels := []string{"x", "y", "w"}
	zs := []float64{math.Copysign(0, -1), 0, 1, -1, 2}
	c := 0.0
	for i := 0; i < 160; i++ {
		a := rng.Intn(5)
		b := math.Round(rng.Float64()*8) / 2
		s := levels[rng.Intn(3)]
		if i%4 != 3 {
			c = rng.NormFloat64()
		}
		z := zs[rng.Intn(len(zs))]
		yr := 0.7*float64(a) + b - 0.5*c
		if s == "x" {
			yr -= 1
		}
		yr = math.Round((yr+0.4*rng.NormFloat64())*4) / 4
		yc := 0
		if float64(a)+b+c > 4 {
			yc = 1
		}
		if rng.Intn(10) == 0 {
			yc = 1 - yc
		}
		u.MustAppend(table.Row{
			table.Int(int64(i)), table.Int(int64(a)), table.Float(b), table.Str(s),
			table.Float(c), table.Float(z), table.Float(yr), table.Int(int64(yc)),
		})
	}
	return u
}

// fingerprintBits is a seeded 0/1 feature matrix (rows and columns)
// with two noisy targets, the shape the MO-GBM surrogate trains on.
func fingerprintBits() (X [][]float64, cols [][]float64, Y [][]float64, targets [][]float64) {
	rng := rand.New(rand.NewSource(44))
	const n, nf = 120, 6
	cols = make([][]float64, nf)
	for f := range cols {
		cols[f] = make([]float64, n)
		for i := range cols[f] {
			cols[f][i] = float64(rng.Intn(2))
		}
	}
	targets = [][]float64{make([]float64, n), make([]float64, n)}
	X = make([][]float64, n)
	Y = make([][]float64, n)
	for i := 0; i < n; i++ {
		X[i] = make([]float64, nf)
		for f := range cols {
			X[i][f] = cols[f][i]
		}
		targets[0][i] = cols[0][i] + 0.5*cols[1][i]*cols[2][i] + 0.05*rng.NormFloat64()
		targets[1][i] = math.Round(4*(cols[3][i]-cols[4][i]+0.3*rng.NormFloat64())) / 4
		Y[i] = []float64{targets[0][i], targets[1][i]}
	}
	return X, cols, Y, targets
}

// hashBits hashes the Float64bits of xs.
func hashBits(xs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// fromTableSkip is FromTable over t without the skipped columns: the
// reference encoding of NewTableEncoderSkip(t, target, skip...), built
// independently of the encoder.
func fromTableSkip(t *table.Table, target string, skip ...string) *Dataset {
	for _, name := range skip {
		t = t.DropColumn(name)
	}
	return FromTable(t, target)
}

// fingerprintOutputs fits every family through FitData on the
// row-major *Dataset of the full table (the "/fit" entries) and on a
// matrix view of a row subset (the "/data" entries), predicts every row
// of the full table, and computes the feature scores; it returns each
// output vector's hash by name.
func fingerprintOutputs() map[string]string {
	u := fingerprintTable()
	encR := NewTableEncoderSkip(u, "yr", "id", "yc")
	encC := NewTableEncoderSkip(u, "yc", "id", "yr")
	// Without the continuous c every feature has at most 16 value
	// levels (a 5, b 9, s 3, z 4 with ±0 as one level), the shape of
	// every exact fit in the datagen tasks.
	encL := NewTableEncoderSkip(u, "yc", "id", "yr", "c")
	encLR := NewTableEncoderSkip(u, "yr", "id", "yc", "c")
	dsR, dsC := fromTableSkip(u, "yr", "id", "yc"), fromTableSkip(u, "yc", "id", "yr")
	dsL, dsLR := fromTableSkip(u, "yc", "id", "yr", "c"), fromTableSkip(u, "yr", "id", "yc", "c")
	var sub []int
	for i := 0; i < u.NumRows(); i++ {
		if i%5 != 2 {
			sub = append(sub, i)
		}
	}
	vR, vC, vL := encR.Matrix().View(sub, nil), encC.Matrix().View(sub, nil), encL.Matrix().View(sub, nil)
	vLR := encLR.Matrix().View(sub, nil)

	out := map[string]string{}
	predictAll := func(X [][]float64, f func([]float64) float64) string {
		p := make([]float64, len(X))
		for i, x := range X {
			p[i] = f(x)
		}
		return hashBits(p)
	}
	type model interface {
		FitData(d Data)
	}
	// both fits a fresh model on ds and another on v, and records the
	// hashes of pred over ds's rows.
	both := func(name string, ds *Dataset, v *View, mk func() model, pred func(model) func([]float64) float64) {
		m := mk()
		m.FitData(ds)
		out[name+"/fit"] = predictAll(ds.X, pred(m))
		m = mk()
		m.FitData(v)
		out[name+"/data"] = predictAll(ds.X, pred(m))
	}
	predict := func(m model) func([]float64) float64 { return m.(interface{ Predict([]float64) float64 }).Predict }
	proba := func(m model) func([]float64) float64 {
		switch c := m.(type) {
		case *GBMClassifier:
			return c.PredictProba
		case *HistGBMClassifier:
			return c.PredictProba
		case *TreeClassifier:
			return func(x []float64) float64 { return c.PredictProba(x)[1] }
		case *ForestClassifier:
			return func(x []float64) float64 { return c.PredictProba(x)[1] }
		}
		panic("no proba")
	}

	both("treereg", dsR, vR, func() model { return &TreeRegressor{Config: TreeConfig{MaxDepth: 6}} }, predict)
	both("treeclf", dsC, vC, func() model { return &TreeClassifier{Config: TreeConfig{MaxDepth: 6}} }, proba)
	both("gbmreg", dsR, vR, func() model { return &GBMRegressor{Config: GBMConfig{NumTrees: 25, MaxDepth: 3, Seed: 1}} }, predict)
	both("gbmclf", dsC, vC, func() model { return &GBMClassifier{Config: GBMConfig{NumTrees: 25, MaxDepth: 3, Seed: 1}} }, proba)
	both("forestclf", dsC, vC, func() model {
		return &ForestClassifier{Config: ForestConfig{NumTrees: 10, MaxDepth: 6, Seed: 2}}
	}, proba)
	both("treeclf-levels", dsL, vL, func() model { return &TreeClassifier{Config: TreeConfig{MaxDepth: 6}} }, proba)
	both("treeclf-levels-minleaf1", dsL, vL, func() model { return &TreeClassifier{Config: TreeConfig{MaxDepth: 8, MinLeaf: 1}} }, proba)
	both("treeclf-levels-minleaf7", dsL, vL, func() model { return &TreeClassifier{Config: TreeConfig{MaxDepth: 8, MinLeaf: 7}} }, proba)
	both("forestclf-levels", dsL, vL, func() model {
		return &ForestClassifier{Config: ForestConfig{NumTrees: 10, MaxDepth: 6, Seed: 2}}
	}, proba)
	both("forestclf-levels-minleaf1", dsL, vL, func() model {
		return &ForestClassifier{Config: ForestConfig{NumTrees: 10, MaxDepth: 8, MinLeaf: 1, MaxFeatures: 3, Seed: 4}}
	}, proba)
	both("forestreg", dsR, vR, func() model {
		return &ForestRegressor{Config: ForestConfig{NumTrees: 10, MaxDepth: 6, Seed: 2}}
	}, predict)
	both("histgbm", dsC, vC, func() model {
		return &HistGBMClassifier{Config: HistGBMConfig{GBM: GBMConfig{NumTrees: 25, MaxDepth: 3, Seed: 1}, NumBins: 8}}
	}, proba)
	// Regression over at most 16 value levels: the regression target on
	// the encoding without c, and HistGBM's at most 16 bins.
	both("treereg-levels", dsLR, vLR, func() model { return &TreeRegressor{Config: TreeConfig{MaxDepth: 6}} }, predict)
	both("treereg-levels-minleaf1", dsLR, vLR, func() model { return &TreeRegressor{Config: TreeConfig{MaxDepth: 8, MinLeaf: 1}} }, predict)
	both("treereg-levels-minleaf7", dsLR, vLR, func() model { return &TreeRegressor{Config: TreeConfig{MaxDepth: 8, MinLeaf: 7}} }, predict)
	both("gbmreg-levels", dsLR, vLR, func() model { return &GBMRegressor{Config: GBMConfig{NumTrees: 25, MaxDepth: 3, Seed: 1}} }, predict)
	both("gbmclf-levels", dsL, vL, func() model { return &GBMClassifier{Config: GBMConfig{NumTrees: 25, MaxDepth: 3, Seed: 1}} }, proba)
	both("histgbm-bins16", dsC, vC, func() model {
		return &HistGBMClassifier{Config: HistGBMConfig{GBM: GBMConfig{NumTrees: 25, MaxDepth: 3, Seed: 1}, NumBins: 16}}
	}, proba)
	// Three classes plus a label of -1, which split search clamps to
	// class 0 and leaf probabilities ignore.
	y3 := make([]float64, len(dsL.Y))
	for i, x := range dsL.X {
		y3[i] = dsL.Y[i] + float64(int(x[0])%3) - 1
	}
	proba3 := func(p []float64) float64 { return p[1] + 4*p[2] }
	tc := &TreeClassifier{Config: TreeConfig{MaxDepth: 6, MinLeaf: 1}, NumClass: 3}
	tc.FitData(dsOf(dsL.X, y3))
	out["treeclf-levels-3class/fit"] = predictAll(dsL.X, func(x []float64) float64 { return proba3(tc.PredictProba(x)) })
	fc := &ForestClassifier{Config: ForestConfig{NumTrees: 6, MaxDepth: 6, Seed: 3}, NumClass: 3}
	fc.FitData(dsOf(dsL.X, y3))
	out["forestclf-levels-3class/fit"] = predictAll(dsL.X, func(x []float64) float64 { return proba3(fc.PredictProba(x)) })
	out["forestclf-levels-3class/predict"] = predictAll(dsL.X, fc.Predict)
	// Hard labels of HistGBM, which bin each predicted row.
	hg := &HistGBMClassifier{Config: HistGBMConfig{GBM: GBMConfig{NumTrees: 25, MaxDepth: 3, Seed: 1}, NumBins: 16}}
	hg.FitData(vC)
	out["histgbm-bins16/predict"] = predictAll(dsC.X, hg.Predict)
	// Large leaves make the k < MinLeaf abort common.
	tm := &TreeRegressor{Config: TreeConfig{MaxDepth: 8, MinLeaf: 5}}
	tm.FitData(dsR)
	out["treereg-minleaf5/fit"] = predictAll(dsR.X, tm.Predict)
	// A mirror-symmetric stump: isolating either end row gains exactly
	// the same, and the first candidate must win.
	tieX := make([][]float64, 10)
	tieY := make([]float64, 10)
	for i := range tieX {
		tieX[i] = []float64{float64(i)}
	}
	tieY[0], tieY[9] = 3, 3
	ts := &TreeRegressor{Config: TreeConfig{MaxDepth: 1, MinLeaf: 1}}
	ts.FitData(dsOf(tieX, tieY))
	out["treereg-tie/fit"] = predictAll(tieX, ts.Predict)
	gm := &GBMRegressor{Config: GBMConfig{NumTrees: 15, MaxDepth: 4, MinLeaf: 4, Seed: 3}}
	gm.FitData(vR)
	out["gbmreg-minleaf4/data"] = predictAll(dsR.X, gm.Predict)

	X, cols, Y, targets := fingerprintBits()
	moCfg := GBMConfig{NumTrees: 20, MaxDepth: 3, LearningRate: 0.15, Seed: 9}
	mo := rowMajorMOGBM(moCfg, X, Y)
	moHash := func(m *MultiOutputGBM) string {
		var p []float64
		for _, x := range X {
			p = append(p, m.Predict(x)...)
		}
		return hashBits(p)
	}
	out["mogbm/fit"] = moHash(mo)
	mo = &MultiOutputGBM{Config: moCfg}
	fitCols(mo, len(X), cols, targets)
	out["mogbm/fitcols"] = moHash(mo)
	gb := &GBMRegressor{Config: GBMConfig{NumTrees: 15, MaxDepth: 4, MinLeaf: 4, Seed: 3}}
	ws := getScratch()
	fr := frameFromCols(cols, targets[1], ws)
	gb.fitFrame(fr, ws)
	ws.putFrame(fr)
	putScratch(ws)
	out["gbmreg-minleaf4/fitcols"] = predictAll(X, gb.Predict)

	// Task t2's forest at the size of a serve-append valuation: twelve
	// trees, each seeding a source of its own, over a 60-row view of
	// eight four-level features.
	u2, rows2 := leveledTable(86, 8, 4, 3)
	enc2 := NewTableEncoder(u2, "y")
	ds2 := FromTable(u2, "y")
	f2 := t2Forest()
	f2.FitData(enc2.Matrix().View(rows2, nil))
	out["forestclf-t2-60rows/data"] = predictAll(ds2.X, func(x []float64) float64 { return proba3(f2.PredictProba(x)) })
	uR, rowsR := leveledTable(86, 8, 4, 0)
	encR2 := NewTableEncoder(uR, "y")
	fr2 := &ForestRegressor{Config: ForestConfig{NumTrees: 8, MaxDepth: 6, Seed: 7}}
	fr2.FitData(encR2.Matrix().View(rowsR, nil))
	out["forestreg-levels-60rows/data"] = predictAll(FromTable(uR, "y").X, fr2.Predict)
	// The train/test shuffle of every valuation, at every size up to 200.
	var perms []float64
	for n := 1; n <= 200; n++ {
		perm, nTest := splitPerm(n, 0.3, 42)
		perms = append(perms, float64(nTest))
		for _, p := range perm {
			perms = append(perms, float64(p))
		}
	}
	out["splitperm/n1-200"] = hashBits(perms)

	out["fisher/data"] = hashBits(FisherScoreData(vC, Labels(vC)))
	out["mi/data"] = hashBits(MutualInformationData(vC, Labels(vC), 8))
	out["mi/data-continuous"] = hashBits(MutualInformationData(vR, Labels(vR), 4))
	out["mi/rows"] = hashBits(MutualInformationData(dsR, dsR.Y, 6))
	return out
}

// TestPinnedFingerprints holds every tree family and feature score to
// the output bits recorded in pinnedFingerprints, so a kernel rewrite
// that claims identical output is checked against the code it replaced
// rather than only against itself.
func TestPinnedFingerprints(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprints are pinned on amd64; %s may fuse multiply-adds differently", runtime.GOARCH)
	}
	got := fingerprintOutputs()
	var bad []string
	for name, want := range pinnedFingerprints {
		if got[name] != want {
			bad = append(bad, fmt.Sprintf("%s: got %s, pinned %s", name, got[name], want))
		}
	}
	for name := range got {
		if _, ok := pinnedFingerprints[name]; !ok {
			bad = append(bad, name+": not pinned")
		}
	}
	if len(bad) == 0 {
		return
	}
	sort.Strings(bad)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var tbl strings.Builder
	for _, name := range names {
		fmt.Fprintf(&tbl, "\t%q: %q,\n", name, got[name])
	}
	t.Fatalf("outputs moved:\n%s\ncurrent table:\n%s", strings.Join(bad, "\n"), tbl.String())
}
