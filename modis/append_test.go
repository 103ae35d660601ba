package modis_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/fst"
	"repro/internal/ml"
	"repro/internal/table"
	"repro/modis"
)

// streamUniversal builds the base table of the streaming tests, with
// streamTestRow as the shared row generator so appended batches carry
// the same value structure as the rows present at construction.
func streamUniversal(rows int) *table.Table {
	u := table.New("D_U", table.Schema{
		{Name: "a", Kind: table.KindFloat},
		{Name: "b", Kind: table.KindFloat},
		{Name: "target", Kind: table.KindInt},
	})
	for i := 0; i < rows; i++ {
		u.MustAppend(streamTestRow(i))
	}
	return u
}

func streamTestRow(i int) table.Row {
	return table.Row{
		table.Float(float64(i % 3)),
		table.Float(float64(i % 4)),
		table.Int(int64(i % 2)),
	}
}

// streamShapeModel derives two opposing measures from the dataset
// shape alone. Unlike the other test models it does NOT normalize by
// the universal table's size: the memo survives an append exactly for
// states whose dataset is unchanged, so a memoized valuation is only
// reusable when it is a pure function of that dataset — a model
// peeking at the (grown) universal table would make retained entries
// stale by construction. That purity is the valuation side of the
// streaming contract.
type streamShapeModel struct{}

func (streamShapeModel) Name() string { return "stream-shape" }

func (streamShapeModel) Evaluate(d *table.Table) ([]float64, error) {
	rows := float64(d.NumRows())
	cols := float64(d.NumCols())
	return []float64{
		0.1 + rows*cols/1000,
		0.1 + 1/(1+rows),
	}, nil
}

// newStreamConfig wires the full streaming stack: an ML encoder as the
// space's column source (so Space.Append exercises the matrix delta
// path), optionally a post-materialization UDF. No estimator — every
// valuation is exact, so results are a pure function of the state.
func newStreamConfig(tb testing.TB, u *table.Table, udf bool) *fst.Config {
	tb.Helper()
	enc := ml.NewTableEncoder(u, "target")
	sp := fst.NewSpace(u, "target", fst.SpaceConfig{MaxLiteralsPerAttr: 4, Columns: enc})
	if udf {
		sp.RegisterUDF(fst.ImputeMeansUDF("target"))
	}
	return &fst.Config{
		Space: sp,
		Model: streamShapeModel{},
		Measures: []fst.Measure{
			{Name: "p0", Normalize: fst.Identity(1e-3)},
			{Name: "p1", Normalize: fst.Identity(1e-3)},
		},
	}
}

// coldTwin builds the reference engine of the determinism contract: a
// cold space over the concatenated table sharing the streamed space's
// frozen entry layout (Rebuild), with its own fresh encoder.
func coldTwin(tb testing.TB, streamed *fst.Config, base *table.Table, appended []table.Row) *modis.Engine {
	tb.Helper()
	u2, err := table.Concat("D_U", base, appended)
	if err != nil {
		tb.Fatal(err)
	}
	return modis.NewEngine(&fst.Config{
		Space:    streamed.Space.Rebuild(u2, ml.NewTableEncoder(u2, "target")),
		Model:    streamShapeModel{},
		Measures: streamed.Measures,
	})
}

func streamSkylineJSON(tb testing.TB, rep *modis.Report) string {
	tb.Helper()
	blob, err := json.Marshal(rep.Skyline)
	if err != nil {
		tb.Fatal(err)
	}
	return string(blob)
}

// The tentpole contract, end to end: after k Append batches — solo
// rows or multi-row, UDFs registered or not, memo warm or cold — every
// algorithm's skyline is byte-identical to a cold engine built over
// the concatenated table, at parallelism 1 and above it.
func TestAppendMatchesColdEngine(t *testing.T) {
	cases := []struct {
		name    string
		udf     bool
		warm    bool // run (and memoize) before the first append
		batches []int
	}{
		{"solo-rows", false, false, []int{1, 1, 1}},
		{"batched", false, false, []int{4, 1, 7}},
		{"batched-udf", true, false, []int{3, 5}},
		{"warm-memo", false, true, []int{2, 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const baseRows = 24
			base := streamUniversal(baseRows)
			cfg := newStreamConfig(t, streamUniversal(baseRows), tc.udf)
			eng := modis.NewEngine(cfg)
			ctx := context.Background()
			opts := func(par int) []modis.Option {
				return []modis.Option{
					modis.WithEpsilon(0.15), modis.WithMaxLevel(3),
					modis.WithSeed(2), modis.WithK(3), modis.WithParallelism(par),
				}
			}
			if tc.warm {
				if _, err := eng.Run(ctx, "bi", opts(1)...); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(11))
			next := baseRows
			var all []table.Row
			for bi, n := range tc.batches {
				var batch []table.Row
				for i := 0; i < n; i++ {
					batch = append(batch, streamTestRow(next+rng.Intn(12)))
					next++
				}
				all = append(all, batch...)
				res, err := eng.Append(batch)
				if err != nil {
					t.Fatal(err)
				}
				if res.Version != uint64(bi+1) || res.Rows != n {
					t.Fatalf("batch %d: result %+v", bi, res)
				}
			}
			if eng.TableVersion() != uint64(len(tc.batches)) || eng.RowCount() != baseRows+len(all) {
				t.Fatalf("engine reports version %d rows %d, want %d/%d",
					eng.TableVersion(), eng.RowCount(), len(tc.batches), baseRows+len(all))
			}

			cold := coldTwin(t, cfg, base, all)
			for _, algo := range allAlgorithms() {
				if tc.udf && algo == "exact" {
					// exact over UDF spaces is the slowest pairing; the
					// other cases cover it.
					continue
				}
				for _, par := range []int{1, 4} {
					got, err := eng.Run(ctx, algo, opts(par)...)
					if err != nil {
						t.Fatalf("%s/p%d streamed: %v", algo, par, err)
					}
					want, err := cold.Run(ctx, algo, opts(par)...)
					if err != nil {
						t.Fatalf("%s/p%d cold: %v", algo, par, err)
					}
					if g, w := streamSkylineJSON(t, got), streamSkylineJSON(t, want); g != w {
						t.Errorf("%s at parallelism %d: streamed skyline diverges from cold\nstreamed: %s\ncold:     %s",
							algo, par, g, w)
					}
				}
			}
		})
	}
}

// Append keeps the memo it can prove untouched: batch rows whose value
// point an existing literal removes leave every valuation of states
// clearing that literal in place, and the next run re-valuates only
// what was dropped.
func TestAppendPreservesUnaffectedMemo(t *testing.T) {
	cfg := newStreamConfig(t, streamUniversal(24), false)
	eng := modis.NewEngine(cfg)
	ctx := context.Background()
	opts := []modis.Option{
		modis.WithEpsilon(0.15), modis.WithMaxLevel(3), modis.WithSeed(2), modis.WithK(3),
	}
	first, err := eng.Run(ctx, "bi", opts...)
	if err != nil {
		t.Fatal(err)
	}
	if first.Valuated == 0 {
		t.Fatal("cold run valuated nothing")
	}
	memoBefore := cfg.Tests.Len()

	// One row at a single existing value point: states clearing the
	// literal covering it are untouched, everything else invalidates.
	res, err := eng.Append([]table.Row{streamTestRow(0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Invalidated == 0 || res.Retained == 0 {
		t.Fatalf("append invalidated %d retained %d — want both nonzero (precise invalidation)",
			res.Invalidated, res.Retained)
	}
	if res.Invalidated+res.Retained != memoBefore {
		t.Errorf("invalidated %d + retained %d != memo size %d",
			res.Invalidated, res.Retained, memoBefore)
	}

	// The rerun re-valuates at most what was dropped — retained entries
	// answer from the memo — and still matches the cold reference.
	second, err := eng.Run(ctx, "bi", opts...)
	if err != nil {
		t.Fatal(err)
	}
	if second.Valuated == 0 || second.Valuated >= first.Valuated {
		t.Errorf("post-append run valuated %d of originally %d — want partial recomputation",
			second.Valuated, first.Valuated)
	}
	cold := coldTwin(t, cfg, streamUniversal(24), []table.Row{streamTestRow(0)})
	want, err := cold.Run(ctx, "bi", opts...)
	if err != nil {
		t.Fatal(err)
	}
	if streamSkylineJSON(t, second) != streamSkylineJSON(t, want) {
		t.Error("post-append skyline diverges from the cold reference")
	}
}

// Append failures leave the engine fully usable at its old version.
func TestAppendErrorLeavesEngineIntact(t *testing.T) {
	cfg := newStreamConfig(t, streamUniversal(24), false)
	eng := modis.NewEngine(cfg)
	if _, err := eng.Append([]table.Row{{table.Float(1)}}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if eng.TableVersion() != 0 || eng.RowCount() != 24 {
		t.Fatalf("failed append moved the engine: version %d rows %d", eng.TableVersion(), eng.RowCount())
	}
	if _, err := eng.Run(context.Background(), "bi", modis.WithMaxLevel(2)); err != nil {
		t.Fatalf("engine unusable after failed append: %v", err)
	}
}
