package modis

// White-box algorithm-table tests: installing a custom algorithm needs
// the internal/core types an algorithm is built from, which only the
// package itself (not external consumers) is meant to reference.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fst"
	"repro/internal/table"
)

// echoOptions are the options echoAlgorithm last received.
var echoOptions core.Options

// echoAlgorithm is a minimal algorithm: it records its
// options, valuates the universal state and returns it as a singleton
// skyline.
func echoAlgorithm(ctx context.Context, cfg *fst.Config, opts core.Options) (*core.Result, error) {
	echoOptions = opts
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bits := cfg.Space.FullBitmap()
	val := cfg.NewValuator(opts.ExactRunner)
	perf, err := val.Valuate(ctx, bits)
	if err != nil {
		return nil, err
	}
	return &core.Result{
		Skyline: []*core.Candidate{{Bits: bits.Clone(), Perf: perf.Clone()}},
		Stats:   core.RunStats{Valuated: val.Stats.Valuations()},
	}, nil
}

func registryTestConfig(tb testing.TB) *fst.Config {
	tb.Helper()
	u := table.New("D_U", table.Schema{
		{Name: "a", Kind: table.KindFloat},
		{Name: "target", Kind: table.KindInt},
	})
	for i := 0; i < 16; i++ {
		u.MustAppend(table.Row{table.Float(float64(i % 4)), table.Int(int64(i % 2))})
	}
	sp := fst.NewSpace(u, "target", fst.SpaceConfig{MaxLiteralsPerAttr: 4})
	return &fst.Config{
		Space: sp,
		Model: &shapeCountModel{space: sp},
		Measures: []fst.Measure{
			{Name: "p0", Normalize: fst.Identity(1e-3)},
			{Name: "p1", Normalize: fst.Identity(1e-3)},
		},
	}
}

type shapeCountModel struct{ space *fst.Space }

func (m *shapeCountModel) Name() string { return "shape-count" }

func (m *shapeCountModel) Evaluate(d *table.Table) ([]float64, error) {
	share := float64(d.NumRows()) / float64(m.space.Universal.NumRows())
	return []float64{0.1 + 0.9*share, 1 - 0.9*share}, nil
}

// TestAlgorithmReceivesResolvedOptions: an algorithm is handed the
// run's resolved options, to be read as given.
func TestAlgorithmReceivesResolvedOptions(t *testing.T) {
	algorithms["echo-test"] = echoAlgorithm
	defer delete(algorithms, "echo-test")
	eng := NewEngine(registryTestConfig(t)) // two measures
	rep, err := eng.Run(context.Background(), "Echo-Test")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != "echo-test" || len(rep.Skyline) != 1 {
		t.Errorf("custom algorithm report: algo=%q skyline=%d", rep.Algorithm, len(rep.Skyline))
	}
	// With no options the algorithm receives exactly the defaults, the
	// last measure decisive; only the job's progress tee is added.
	got, want := echoOptions, core.DefaultOptions(2)
	if got.Progress == nil {
		t.Error("the job's progress tee is missing")
	}
	got.Progress = nil
	if !reflect.DeepEqual(got, want) || got.Decisive != 1 {
		t.Errorf("received options %+v, want the defaults %+v", got, want)
	}
	wantReport := RunOptions{Epsilon: want.Eps, Decisive: want.Decisive, Theta: want.Theta,
		K: want.K, Alpha: want.Alpha, Parallelism: 1}
	if rep.Options != wantReport {
		t.Errorf("reported options %+v, want the defaults %+v", rep.Options, wantReport)
	}
	if _, err := eng.Run(context.Background(), "echo-test", WithDecisive(0), WithAlpha(0)); err != nil {
		t.Fatal(err)
	}
	if echoOptions.Decisive != 0 || echoOptions.Alpha != 0 {
		t.Errorf("after WithDecisive(0), WithAlpha(0): decisive %d, alpha %v", echoOptions.Decisive, echoOptions.Alpha)
	}
}
