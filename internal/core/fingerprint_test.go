package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/fst"
	"repro/internal/workpool"
)

// pinnedSearches are the output fingerprints of every search algorithm
// over the grid of fingerprintCells: a hash of the skyline (member
// bitmaps and performance bits, in order) followed by Valuated,
// ExactCalls, Levels and Pruned. A refactor of the search loop that
// must not move a single output bit leaves them as they are; a change
// that means to move outputs updates them (the failure message prints
// the new table) and says so.
var pinnedSearches = map[string]string{
	"t1-narrow/l2/exact/apx":        "3492aebbd3edaad3 v79 x79 l2 p0",
	"t1-narrow/l2/exact/bi":         "3492aebbd3edaad3 v79 x79 l2 p0",
	"t1-narrow/l2/exact/div":        "5f7795e6f61954a8 v79 x79 l2 p0",
	"t1-narrow/l2/exact/exact":      "31780621e0082d06 v79 x79 l2 p0",
	"t1-narrow/l2/exact/nobi":       "3492aebbd3edaad3 v79 x79 l2 p0",
	"t1-narrow/l2/surrogate/apx":    "67b454a8dbbe3055 v79 x29 l2 p0",
	"t1-narrow/l2/surrogate/bi":     "67b454a8dbbe3055 v79 x29 l2 p0",
	"t1-narrow/l2/surrogate/div":    "5f7795e6f61954a8 v79 x29 l2 p0",
	"t1-narrow/l2/surrogate/exact":  "d4b78c6eea7691d1 v79 x29 l2 p0",
	"t1-narrow/l2/surrogate/nobi":   "67b454a8dbbe3055 v79 x29 l2 p0",
	"t1-narrow/n60/exact/apx":       "205d915b10377fcf v60 x60 l5 p0",
	"t1-narrow/n60/exact/bi":        "205d915b10377fcf v60 x60 l5 p0",
	"t1-narrow/n60/exact/div":       "d5ff961c3021f15b v60 x60 l5 p0",
	"t1-narrow/n60/exact/exact":     "6a59c757d36e8d1d v60 x60 l2 p0",
	"t1-narrow/n60/exact/nobi":      "205d915b10377fcf v60 x60 l5 p0",
	"t1-narrow/n60/surrogate/apx":   "6d0c74283666046b v60 x25 l3 p0",
	"t1-narrow/n60/surrogate/bi":    "6d0c74283666046b v60 x25 l3 p0",
	"t1-narrow/n60/surrogate/div":   "a96696ec5fc1ed5f v60 x25 l3 p0",
	"t1-narrow/n60/surrogate/exact": "719ac3ae84ee847a v60 x25 l2 p0",
	"t1-narrow/n60/surrogate/nobi":  "6d0c74283666046b v60 x25 l3 p0",
	"t2-append/l1/exact/exact":      "49a84f76bb4966f9 v46 x46 l1 p0",
	"t2-narrow/l2/exact/apx":        "5c24afabd7a02aeb v79 x79 l2 p0",
	"t2-narrow/l2/exact/bi":         "4f2e1baeae11ca93 v26 x26 l2 p0",
	"t2-narrow/l2/exact/div":        "53f3161fd78a57f7 v80 x80 l2 p0",
	"t2-narrow/l2/exact/exact":      "5773b1a1786931e6 v79 x79 l2 p0",
	"t2-narrow/l2/exact/nobi":       "4f2e1baeae11ca93 v26 x26 l2 p0",
	"t2-narrow/l2/surrogate/apx":    "b38b13c19e5b72e8 v79 x29 l2 p0",
	"t2-narrow/l2/surrogate/bi":     "27300b99e162d7db v26 x17 l2 p0",
	"t2-narrow/l2/surrogate/div":    "8746036718e412ee v80 x31 l2 p0",
	"t2-narrow/l2/surrogate/exact":  "51fcbb90fe0c61c9 v79 x29 l2 p0",
	"t2-narrow/l2/surrogate/nobi":   "27300b99e162d7db v26 x17 l2 p0",
	"t2-narrow/n60/exact/apx":       "f51d45a47ee7a403 v60 x60 l5 p0",
	"t2-narrow/n60/exact/bi":        "4f2e1baeae11ca93 v26 x26 l2 p0",
	"t2-narrow/n60/exact/div":       "56dc926135f5f99c v60 x60 l5 p0",
	"t2-narrow/n60/exact/exact":     "2d0630b2e86a88a8 v60 x60 l2 p0",
	"t2-narrow/n60/exact/nobi":      "4f2e1baeae11ca93 v26 x26 l2 p0",
	"t2-narrow/n60/surrogate/apx":   "40a3c44421d55540 v60 x25 l5 p0",
	"t2-narrow/n60/surrogate/bi":    "27300b99e162d7db v26 x17 l2 p0",
	"t2-narrow/n60/surrogate/div":   "75fb33dd2742678a v60 x26 l3 p0",
	"t2-narrow/n60/surrogate/exact": "51aa79c52a759f38 v60 x25 l2 p0",
	"t2-narrow/n60/surrogate/nobi":  "27300b99e162d7db v26 x17 l2 p0",
	"t2-wide/n60/exact/apx":         "efeb68abfe1bafd5 v60 x60 l2 p0",
	"t2-wide/n60/exact/bi":          "fa5049355fa4705f v47 x47 l1 p958",
	"t2-wide/n60/exact/div":         "e5fc9651fa486d06 v60 x60 l2 p0",
	"t2-wide/n60/exact/exact":       "c68bca6b288c62e8 v60 x60 l2 p0",
	"t2-wide/n60/exact/nobi":        "aefd18ba2fbd38b7 v60 x60 l2 p0",
	"t2-wide/n60/surrogate/apx":     "eaa06876537b0c65 v60 x50 l2 p0",
	"t2-wide/n60/surrogate/bi":      "fa5049355fa4705f v47 x47 l1 p958",
	"t2-wide/n60/surrogate/div":     "94819426a719c252 v60 x51 l2 p0",
	"t2-wide/n60/surrogate/exact":   "e791f8fdc49721bd v60 x50 l2 p0",
	"t2-wide/n60/surrogate/nobi":    "8a06725ee0ae7efb v60 x51 l2 p0",
	"t4-narrow/l2/exact/apx":        "b823d8cc835cdcb2 v79 x79 l2 p0",
	"t4-narrow/l2/exact/bi":         "c53009a3e19ac553 v20 x20 l2 p10",
	"t4-narrow/l2/exact/div":        "ee92f51b5713d397 v80 x80 l2 p0",
	"t4-narrow/l2/exact/exact":      "b823d8cc835cdcb2 v79 x79 l2 p0",
	"t4-narrow/l2/exact/nobi":       "2c37c6e5493b50ce v28 x28 l2 p0",
	"t4-narrow/l2/surrogate/apx":    "b1f8b4668bcc57b6 v79 x29 l2 p0",
	"t4-narrow/l2/surrogate/bi":     "c53009a3e19ac553 v20 x16 l2 p10",
	"t4-narrow/l2/surrogate/div":    "4bfa31fc7d4fdae3 v80 x31 l2 p0",
	"t4-narrow/l2/surrogate/exact":  "54923143a711d0a8 v79 x29 l2 p0",
	"t4-narrow/l2/surrogate/nobi":   "c53009a3e19ac553 v28 x18 l2 p0",
	"t4-narrow/n60/exact/apx":       "e6d4af293f3124ab v60 x60 l4 p0",
	"t4-narrow/n60/exact/bi":        "c53009a3e19ac553 v20 x20 l2 p10",
	"t4-narrow/n60/exact/div":       "f67acba1eff10981 v60 x60 l4 p0",
	"t4-narrow/n60/exact/exact":     "0ffdf0e9ddf0d4ed v60 x60 l2 p0",
	"t4-narrow/n60/exact/nobi":      "2c37c6e5493b50ce v28 x28 l2 p0",
	"t4-narrow/n60/surrogate/apx":   "ee5bced727efa68c v60 x25 l3 p0",
	"t4-narrow/n60/surrogate/bi":    "c53009a3e19ac553 v20 x16 l2 p10",
	"t4-narrow/n60/surrogate/div":   "3f842594a1140381 v60 x26 l3 p0",
	"t4-narrow/n60/surrogate/exact": "822a4be8637f1ddb v60 x25 l2 p0",
	"t4-narrow/n60/surrogate/nobi":  "c53009a3e19ac553 v28 x18 l2 p0",
	"t4-wide/n60/exact/apx":         "d2da71832cf209e6 v60 x60 l2 p0",
	"t4-wide/n60/exact/bi":          "01783b3bfe1c9038 v60 x60 l2 p4",
	"t4-wide/n60/exact/div":         "07d13778b19f24eb v60 x60 l2 p0",
	"t4-wide/n60/exact/exact":       "87c3cfd9f605a90b v60 x60 l2 p0",
	"t4-wide/n60/exact/nobi":        "89b1b77ecf0f85d5 v60 x60 l2 p0",
	"t4-wide/n60/surrogate/apx":     "d2da71832cf209e6 v60 x54 l2 p0",
	"t4-wide/n60/surrogate/bi":      "ba786c4ed278e8b8 v60 x54 l2 p4",
	"t4-wide/n60/surrogate/div":     "07d3b77074799321 v60 x54 l2 p0",
	"t4-wide/n60/surrogate/exact":   "87c3cfd9f605a90b v60 x54 l2 p0",
	"t4-wide/n60/surrogate/nobi":    "ba786c4ed278e8b8 v60 x54 l2 p0",
	"unit/n60/exact/apx":            "19da2449c97650ab v60 x60 l5 p0",
	"unit/n60/exact/bi":             "8ee2988501c12a55 v11 x11 l1 p0",
	"unit/n60/exact/div":            "d36b7d29ff4b1bd1 v60 x60 l5 p0",
	"unit/n60/exact/exact":          "93f4cacec3588979 v60 x60 l3 p0",
	"unit/n60/exact/nobi":           "8ee2988501c12a55 v11 x11 l1 p0",
	"unit/n60/surrogate/apx":        "9f0207a7ab709a49 v60 x25 l5 p0",
	"unit/n60/surrogate/bi":         "8ee2988501c12a55 v11 x11 l1 p0",
	"unit/n60/surrogate/div":        "f3e840224f3f5e19 v60 x24 l5 p0",
	"unit/n60/surrogate/exact":      "267938062b8011aa v60 x25 l3 p0",
	"unit/n60/surrogate/nobi":       "8ee2988501c12a55 v11 x11 l1 p0",
	"unit/nocap/exact/apx":          "71e2e565ea220d12 v512 x512 l9 p0",
	"unit/nocap/exact/bi":           "8ee2988501c12a55 v11 x11 l1 p0",
	"unit/nocap/exact/div":          "42d34086d863eb6a v512 x512 l9 p0",
	"unit/nocap/exact/exact":        "c7dcf7bdcb83717a v512 x512 l9 p0",
	"unit/nocap/exact/nobi":         "8ee2988501c12a55 v11 x11 l1 p0",
	"unit/nocap/surrogate/apx":      "5e717193c6b20ed4 v512 x138 l9 p0",
	"unit/nocap/surrogate/bi":       "8ee2988501c12a55 v11 x11 l1 p0",
	"unit/nocap/surrogate/div":      "c934af5ddffb90be v512 x137 l9 p0",
	"unit/nocap/surrogate/exact":    "fa3193fee7e901fb v512 x138 l9 p0",
	"unit/nocap/surrogate/nobi":     "8ee2988501c12a55 v11 x11 l1 p0",
}

// fingerprintCell is one search of the grid: a configuration shape, an
// algorithm, the surrogate switch and a budget/level setting.
type fingerprintCell struct {
	name string
	cfg  func(surrogate bool) *fst.Config
	run  func(context.Context, *fst.Config, Options) (*Result, error)
	sur  bool
	grid budgetLevel
}

// budgetLevel is a cell's valuation budget N and level cap maxl.
type budgetLevel struct{ n, maxLevel int }

// options are the cell's knobs for a configuration with numMeasures
// measures: the defaults, with ε 0.15, seed 3, k 3 and the cell's
// budget and level cap.
func (c fingerprintCell) options(numMeasures int) Options {
	o := DefaultOptions(numMeasures)
	o.N, o.MaxLevel, o.Eps, o.Seed, o.K = c.grid.n, c.grid.maxLevel, 0.15, 3, 3
	return o
}

// fingerprintCells enumerates the grid. Shapes: the additive unit
// configuration of newTestConfig; the datagen tasks t1, t2 and t4 at 80
// rows on a narrow attribute mix ("narrow": a 12-entry space, cheap
// enough to exhaust level 2, and small enough that the bi frontiers
// meet); and t2 and t4 on their default attribute mix ("wide": a
// 45-50-entry space where the prune fires hundreds of times, budgeted
// only because an unbudgeted search is too slow to pin). Budgeted cells
// spend N = 60 under a level cap of 5, so the budget cuts a window
// short. The unit shape is also searched unbudgeted with no level cap,
// where bi stops when its frontiers meet (11 states instead of 511).
func fingerprintCells(t *testing.T) []fingerprintCell {
	unit := func(surrogate bool) *fst.Config {
		cfg := newTestConfig(t, 2)
		if surrogate {
			withSurrogate(cfg)
		}
		return cfg
	}
	tasks := []struct {
		name string
		mk   func(datagen.TaskConfig) *datagen.Workload
		wide bool
	}{{"t1", datagen.T1Movie, false}, {"t2", datagen.T2House, true}, {"t4", datagen.T4Mental, true}}
	budgeted := budgetLevel{n: 60, maxLevel: 5}
	unbudgeted := budgetLevel{maxLevel: 2}

	type shape struct {
		name  string
		cfg   func(bool) *fst.Config
		grids map[string]budgetLevel
	}
	shapes := []shape{{"unit", unit, map[string]budgetLevel{
		"n60":   budgeted,
		"nocap": {},
	}}}
	for _, task := range tasks {
		narrow := task.mk(datagen.TaskConfig{Rows: 80, InfoAttrs: 2, NoiseAttrs: 1, AdomK: 2})
		shapes = append(shapes, shape{task.name + "-narrow", narrow.NewConfig, map[string]budgetLevel{"n60": budgeted, "l2": unbudgeted}})
		if task.wide {
			wide := task.mk(datagen.TaskConfig{Rows: 80})
			shapes = append(shapes, shape{task.name + "-wide", wide.NewConfig, map[string]budgetLevel{"n60": budgeted}})
		}
	}

	var cells []fingerprintCell
	for _, sh := range shapes {
		for grid, bl := range sh.grids {
			for _, sur := range []bool{false, true} {
				mode := "exact"
				if sur {
					mode = "surrogate"
				}
				for _, algo := range algorithmsUnderTest() {
					cells = append(cells, fingerprintCell{
						name: fmt.Sprintf("%s/%s/%s/%s", sh.name, grid, mode, algo.name),
						cfg:  sh.cfg, run: algo.run, sur: sur, grid: bl,
					})
				}
			}
		}
	}
	// The cold job of serve-append: t2 at 60 rows on its default
	// attribute mix, swept exhaustively without the surrogate, so every
	// valuation fits the task's forest on a small table. The job sweeps
	// to level 2; the cell stops at level 1, which keeps it under a
	// second at parallelism 1 and 2.
	appendShape := datagen.T2House(datagen.TaskConfig{Rows: 60})
	cells = append(cells, fingerprintCell{
		name: "t2-append/l1/exact/exact",
		cfg:  appendShape.NewConfig, run: ExactMODis, grid: budgetLevel{maxLevel: 1},
	})
	return cells
}

// searchFingerprint hashes a result's skyline — each member's bitmap
// words and the Float64bits of its performance vector, in output order
// — and appends the run counters that must not move either.
func searchFingerprint(res *Result) string {
	h := sha256.New()
	var b [8]byte
	for _, c := range res.Skyline {
		for _, w := range c.Bits.Words() {
			binary.LittleEndian.PutUint64(b[:], w)
			h.Write(b[:])
		}
		for _, x := range c.Perf {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
		h.Write([]byte{0xff})
	}
	st := res.Stats
	return fmt.Sprintf("%s v%d x%d l%d p%d", hex.EncodeToString(h.Sum(nil)[:8]),
		st.Valuated, st.ExactCalls, st.Levels, st.Pruned)
}

// TestPinnedSearchFingerprints holds every algorithm's skyline and
// counters to the values recorded in pinnedSearches, at parallelism 1
// (inline) and 2 (a two-worker queue of the process-global pool), so
// a rewrite of the search loop that claims identical output is checked
// against the code it replaced rather than only against itself.
func TestPinnedSearchFingerprints(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprints are pinned on amd64; %s may fuse multiply-adds differently", runtime.GOARCH)
	}
	got := map[string]string{}
	var bad []string
	pruned := false
	for _, cell := range fingerprintCells(t) {
		for _, par := range []int{1, 2} {
			cfg := cell.cfg(cell.sur)
			opts := cell.options(len(cfg.Measures))
			if par > 1 {
				opts.ExactRunner = workpool.Global().NewQueue("test", par)
			}
			res, err := cell.run(context.Background(), cfg, opts)
			if err != nil {
				t.Fatalf("%s p%d: %v", cell.name, par, err)
			}
			fp := searchFingerprint(res)
			if prev, ok := got[cell.name]; ok && prev != fp {
				bad = append(bad, fmt.Sprintf("%s: parallelism %d gives %s, 1 gives %s", cell.name, par, fp, prev))
			}
			got[cell.name] = fp
			pruned = pruned || res.Stats.Pruned > 0
		}
	}
	if !pruned {
		t.Error("no cell prunes: the grid no longer covers the Lemma 4 prune")
	}
	for name, want := range pinnedSearches {
		if got[name] != want {
			bad = append(bad, fmt.Sprintf("%s: got %s, pinned %s", name, got[name], want))
		}
	}
	for name := range got {
		if _, ok := pinnedSearches[name]; !ok {
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
