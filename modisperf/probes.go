package main

// Direct probes: each layer's public functions called in a loop on
// states harvested from a reference run — fixed iteration counts, the
// median of five repetitions. They run at the end of every traced run,
// so a per-layer record always says what one call into each layer costs
// on this host, whichever workload produced it.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/datagen"
	"repro/internal/fst"
	"repro/internal/ml"
	"repro/internal/skyline"
	"repro/internal/table"
	"repro/internal/wal"
	"repro/internal/workpool"
	"repro/modis"
	"repro/modis/workload"
)

const probeReps = 5

// probe runs fn — which performs calls calls — probeReps times and
// returns the median duration of one call in nanoseconds.
func probe(calls int, fn func()) float64 {
	var per []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		fn()
		per = append(per, float64(time.Since(t0))/float64(calls))
	}
	return median(per)
}

func runProbes(p params, m *measurement) error {
	ws, err := buildTasks(inprocTasks, discoverRows, p.seed, false)
	if err != nil {
		return err
	}
	w := ws["t1"]
	sp, u, target := w.Space, w.Lake.Universal, w.Lake.Target

	// Harvest: the states one budgeted search valuated.
	cfg := w.NewConfig(true)
	if _, err := modis.NewEngine(cfg).Run(context.Background(), "apx", discoverOpts(p.seed, 1)...); err != nil {
		return fmt.Errorf("probe harvest: %w", err)
	}
	tests := cfg.Tests.All()
	states := make([]fst.Bitmap, len(tests))
	vecs := make([]skyline.Vector, len(tests))
	for i, t := range tests {
		b := fst.NewBitmap(len(t.Features))
		for j, f := range t.Features {
			if f > 0.5 {
				b.Set(j)
			}
		}
		states[i], vecs[i] = b, t.Perf
	}
	n := len(states)
	set := func(name string, ns, unitNS float64) { m.set(name, ns/unitNS, probeReps) }

	// fst: row selection, materialisation, child generation, the memo.
	set("fst.rowsfor_us", probe(n, func() {
		for _, b := range states {
			v, _ := sp.RowsFor(b)
			sp.ReleaseRows(v)
		}
	}), 1e3)
	set("fst.materialize_us", probe(n, func() {
		for _, b := range states {
			sp.Materialize(b)
		}
	}), 1e3)
	set("fst.opgen_us", probe(n, func() {
		for _, b := range states {
			fst.OpGen(&fst.State{Bits: b}, fst.Forward)
		}
	}), 1e3)
	set("fst.memo_get_ns", probe(n*100, func() {
		for k := 0; k < 100; k++ {
			for _, b := range states {
				cfg.Tests.Get(b.Key())
			}
		}
	}), 1)

	// ml: the encoder's frozen matrix, views over it, the re-encode of
	// a materialised child, one fit per tree family.
	var enc *ml.TableEncoder
	set("ml.matrix_build_ms", probe(1, func() {
		enc = ml.NewTableEncoderSkip(u, target, "id")
		enc.Matrix()
	}), 1e6)
	mat := enc.Matrix()
	views := make([]fst.RowsView, n)
	kids := make([]*table.Table, n)
	for i, b := range states {
		v, _ := sp.RowsFor(b)
		// Copy out of the pooled scratch: the probe keeps the views.
		views[i] = fst.RowsView{Rows: append([]int(nil), v.Rows...), Masked: append([]string(nil), v.Masked...)}
		sp.ReleaseRows(v)
		kids[i] = sp.Materialize(b)
	}
	set("ml.view_us", probe(n, func() {
		for _, v := range views {
			mat.View(v.Rows, v.Masked).Release()
		}
	}), 1e3)
	set("ml.encode_us", probe(n, func() {
		for _, d := range kids {
			enc.Encode(d)
		}
	}), 1e3)
	fit := func(task string, fitData func(ml.Data)) float64 {
		tw := ws[task]
		tm := ml.NewTableEncoderSkip(tw.Lake.Universal, tw.Lake.Target, "id").Matrix()
		full, _ := tw.Space.RowsFor(tw.Space.FullBitmap())
		rows := append([]int(nil), full.Rows...)
		tw.Space.ReleaseRows(full)
		return probe(1, func() {
			v := tm.View(rows, nil)
			train, _ := v.SplitData(0.3, 42)
			fitData(train)
			v.Release()
		})
	}
	// The same learner settings the tasks' models use.
	set("ml.fit_ms.gbm", fit("t1", func(d ml.Data) {
		(&ml.GBMRegressor{Config: ml.GBMConfig{NumTrees: 30, MaxDepth: 3, Seed: 1}}).FitData(d)
	}), 1e6)
	set("ml.fit_ms.forest", fit("t2", func(d ml.Data) {
		(&ml.ForestClassifier{Config: ml.ForestConfig{NumTrees: 12, MaxDepth: 6, Seed: 1}, NumClass: 3}).FitData(d)
	}), 1e6)
	set("ml.fit_ms.histgbm", fit("t4", func(d ml.Data) {
		(&ml.HistGBMClassifier{Config: ml.HistGBMConfig{
			GBM: ml.GBMConfig{NumTrees: 25, MaxDepth: 3, Seed: 1}, NumBins: 16,
		}}).FitData(d)
	}), 1e6)

	// Set-up layers: the universal join and the space over it.
	set("table.universal_ms", probe(1, func() { table.Universal(w.Lake.Tables...) }), 1e6)
	set("fst.space_build_ms", probe(1, func() {
		fst.NewSpace(u, target, fst.SpaceConfig{
			MaxLiteralsPerAttr: w.Lake.Config.AdomK,
			SkipLiteralAttrs:   []string{"id"},
			ProtectedAttrs:     []string{"id"},
			Columns:            enc,
		})
	}), 1e6)

	// Streaming: one 8-row append into an engine that holds a memo.
	var appendNS []float64
	for r := 0; r < probeReps; r++ {
		aw := datagen.T2House(datagen.TaskConfig{Rows: discoverRows})
		eng := modis.NewEngine(aw.NewConfig(false))
		if _, err := eng.Run(context.Background(), "exact", modis.WithMaxLevel(1)); err != nil {
			return fmt.Errorf("probe append warm-up: %w", err)
		}
		batch := newRowSynth(aw.Space, p.seed).batch(8)
		t0 := time.Now()
		if _, err := eng.Append(batch); err != nil {
			return fmt.Errorf("probe append: %w", err)
		}
		appendNS = append(appendNS, float64(time.Since(t0)))
	}
	set("fst.append_ms", median(appendNS), 1e6)

	// skyline: the grid position UPareto computes per candidate, and
	// Kung's exact filter.
	bounds := cfg.Bounds()
	var pos []int
	set("skyline.update_us", probe(n*100, func() {
		for k := 0; k < 100; k++ {
			for _, v := range vecs {
				pos = skyline.GridPosInto(pos, v, bounds, 0.1)
				skyline.PackedPosKey(pos)
			}
		}
	}), 1e3)
	set("skyline.kung_us", probe(20, func() {
		for k := 0; k < 20; k++ {
			skyline.KungSkyline(vecs)
		}
	}), 1e3)

	// workpool: what handing one 16-task window to the pool costs.
	q := workpool.Global().NewQueue("modisperf-probe", 0)
	noop := make([]func(), 16)
	for i := range noop {
		noop[i] = func() {}
	}
	set("workpool.dispatch_us", probe(200, func() {
		for k := 0; k < 200; k++ {
			q.Run(noop)
		}
	}), 1e3)

	// wal: one unsynced 256-byte append, and a 64-record commit.
	dir := filepath.Join(p.scratch, fmt.Sprintf("wal-probe-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	store, err := wal.OpenStore(wal.OsFS{}, dir, nil)
	if err != nil {
		return fmt.Errorf("probe wal: %w", err)
	}
	defer store.Close()
	payload := make([]byte, 256)
	var walErr error
	appendN := func(k int) {
		for i := 0; i < k; i++ {
			if _, err := store.Append(payload); err != nil {
				walErr = err
			}
		}
	}
	set("wal.append_us", probe(1000, func() { appendN(1000) }), 1e3)
	set("wal.sync_ms", probe(1, func() {
		appendN(64)
		if err := store.Sync(); err != nil {
			walErr = err
		}
	}), 1e6)
	if walErr != nil {
		return fmt.Errorf("probe wal: %w", walErr)
	}

	// workload: the descriptor hash the fleet routes on.
	desc, err := workload.Describe("probe", cfg)
	if err != nil {
		return fmt.Errorf("probe descriptor: %w", err)
	}
	set("workload.hash_us", probe(20, func() {
		for k := 0; k < 20; k++ {
			desc.Hash()
		}
	}), 1e3)
	return nil
}
