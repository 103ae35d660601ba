package serve_test

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/fst"
	"repro/internal/table"
	"repro/modis"
	"repro/modis/serve"
	"repro/modis/workload"
)

// shapeModel derives two opposing measures from the dataset shape (a
// cost shrinking with the table, a loss growing with reduction), so
// searches have a genuine trade-off with no ML cost and results are a
// pure function of the state — the determinism the batching property
// tests lean on. Evaluate is re-entrant; sleep stretches valuations so
// concurrent runs genuinely overlap, and a non-nil gate holds every
// valuation until the test closes it.
type shapeModel struct {
	space *fst.Space
	sleep time.Duration
	gate  chan struct{}
}

func (m *shapeModel) Name() string { return "shape" }

func (m *shapeModel) Evaluate(d *table.Table) ([]float64, error) {
	if m.gate != nil {
		<-m.gate
	}
	if m.sleep > 0 {
		time.Sleep(m.sleep)
	}
	rows := float64(d.NumRows())
	cols := float64(d.NumCols())
	uRows := float64(m.space.Universal.NumRows())
	uCols := float64(m.space.Universal.NumCols())
	return []float64{
		0.1 + 0.9*(rows/uRows)*(cols/uCols),
		0.1 + 0.9*(1-rows/uRows),
	}, nil
}

// newShapeConfig builds a fresh deterministic configuration. Every
// call returns an independent config (own test set), so solo baselines
// never share valuations with scheduled runs.
func newShapeConfig(tb testing.TB, sleep time.Duration) *fst.Config {
	tb.Helper()
	u := table.New("D_U", table.Schema{
		{Name: "a", Kind: table.KindFloat},
		{Name: "b", Kind: table.KindFloat},
		{Name: "target", Kind: table.KindInt},
	})
	for i := 0; i < 24; i++ {
		u.MustAppend(table.Row{
			table.Float(float64(i % 3)),
			table.Float(float64(i % 4)),
			table.Int(int64(i % 2)),
		})
	}
	sp := fst.NewSpace(u, "target", fst.SpaceConfig{MaxLiteralsPerAttr: 4})
	return &fst.Config{
		Space: sp,
		Model: &shapeModel{space: sp, sleep: sleep},
		Measures: []fst.Measure{
			{Name: "p0", Normalize: fst.Identity(1e-3)},
			{Name: "p1", Normalize: fst.Identity(1e-3)},
		},
	}
}

func allAlgorithms() []string { return []string{"apx", "bi", "nobi", "div", "exact"} }

// skylineJSON renders a report's skyline byte-comparably.
func skylineJSON(tb testing.TB, rep *modis.Report) string {
	tb.Helper()
	blob, err := json.Marshal(rep.Skyline)
	if err != nil {
		tb.Fatal(err)
	}
	return string(blob)
}

// runOpts are the shared tuning knobs of the determinism tests:
// unbudgeted level-bounded runs, so a run's traversal is a pure
// function of the configuration. (A budgeted run on a shared engine
// legitimately stretches further than its solo twin — memo hits cost
// no budget — so budget-limited sharing is exercised separately.)
func runOpts() []modis.Option {
	return []modis.Option{
		modis.WithEpsilon(0.15), modis.WithMaxLevel(3),
		modis.WithSeed(2), modis.WithK(3),
	}
}

func mustResult(tb testing.TB, job *modis.Job) *modis.Report {
	tb.Helper()
	rep, err := job.Result()
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// describeShape derives the canonical descriptor a shape config
// registers under.
func describeShape(tb testing.TB, cfg *fst.Config) *workload.Descriptor {
	tb.Helper()
	d, err := workload.Describe("shape", cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// registerShape registers cfg with the scheduler under the catalog
// name "shape".
func registerShape(tb testing.TB, sched *serve.Scheduler, cfg *fst.Config) {
	tb.Helper()
	if err := sched.Register(describeShape(tb, cfg), cfg); err != nil {
		tb.Fatal(err)
	}
}

var _ = serve.SubmitRequest{} // keep the import pinned for helpers-only builds
