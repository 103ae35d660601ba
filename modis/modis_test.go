package modis_test

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fst"
	"repro/internal/table"
	"repro/modis"
)

// shapeModel derives two opposing measures from the dataset shape (a
// cost that shrinks with the table and a loss that grows), so searches
// have a genuine trade-off without any ML cost. The per-call hook lets
// tests cancel a context from inside a running search.
type shapeModel struct {
	space *fst.Space
	calls int
	hook  func(calls int)
}

func (m *shapeModel) Name() string { return "shape" }

func (m *shapeModel) Evaluate(d *table.Table) ([]float64, error) {
	m.calls++
	if m.hook != nil {
		m.hook(m.calls)
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

func newTestConfig(tb testing.TB, hook func(calls int)) *fst.Config {
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
		Model: &shapeModel{space: sp, hook: hook},
		Measures: []fst.Measure{
			{Name: "p0", Normalize: fst.Identity(1e-3)},
			{Name: "p1", Normalize: fst.Identity(1e-3)},
		},
	}
}

func allAlgorithms() []string { return []string{"apx", "bi", "nobi", "div", "exact"} }

func TestRunAllAlgorithms(t *testing.T) {
	for _, algo := range allAlgorithms() {
		t.Run(algo, func(t *testing.T) {
			eng := modis.NewEngine(newTestConfig(t, nil))
			rep, err := eng.Run(context.Background(), algo,
				modis.WithBudget(100), modis.WithEpsilon(0.2), modis.WithMaxLevel(3))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Algorithm != algo {
				t.Errorf("report algorithm = %q, want %q", rep.Algorithm, algo)
			}
			if len(rep.Skyline) == 0 {
				t.Fatal("empty skyline")
			}
			if rep.Valuated == 0 || rep.Valuated > 100 {
				t.Errorf("valuated = %d, want within (0, 100]", rep.Valuated)
			}
			for _, c := range rep.Skyline {
				if c.Bits.Len() == 0 || len(c.Bitmap) == 0 || len(c.Perf) != 2 {
					t.Errorf("malformed candidate: %+v", c)
				}
			}
		})
	}
}

func TestCancellationStopsEveryAlgorithm(t *testing.T) {
	for _, algo := range allAlgorithms() {
		t.Run(algo, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Cancel from inside the search, a few valuations in; the
			// exhaustive space (no budget) would run far longer.
			cfg := newTestConfig(t, func(calls int) {
				if calls == 3 {
					cancel()
				}
			})
			rep, err := modis.NewEngine(cfg).Run(ctx, algo)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if rep != nil {
				t.Fatal("cancelled run must not return a partial report")
			}
		})
	}
}

func TestDeadlineStopsSearch(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	cfg := newTestConfig(t, func(int) { time.Sleep(2 * time.Millisecond) })
	rep, err := modis.NewEngine(cfg).Run(ctx, "bi")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if rep != nil {
		t.Fatal("timed-out run must not return a partial report")
	}
}

func TestRegistryRejectsUnknownAlgorithm(t *testing.T) {
	eng := modis.NewEngine(newTestConfig(t, nil))
	_, err := eng.Run(context.Background(), "simulated-annealing")
	if err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("err = %v, want unknown-algorithm error", err)
	}
	// The error names the known keys so callers can self-correct.
	for _, known := range allAlgorithms() {
		if !strings.Contains(err.Error(), known) {
			t.Errorf("error %q does not list %q", err, known)
		}
	}
}

func TestRegistryAliasesAndCase(t *testing.T) {
	for alias, canonical := range map[string]string{
		"BiMODis": "bi", "apxmodis": "apx", " exact ": "exact", "NOBIMODIS": "nobi", "DivMODis": "div",
	} {
		rep, err := modis.NewEngine(newTestConfig(t, nil)).Run(context.Background(), alias,
			modis.WithBudget(40), modis.WithMaxLevel(2))
		if err != nil {
			t.Fatalf("alias %q: %v", alias, err)
		}
		if rep.Algorithm != canonical {
			t.Errorf("alias %q resolved to %q, want %q", alias, rep.Algorithm, canonical)
		}
	}
}

func TestOptionValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		opt  modis.Option
	}{
		{"eps zero", modis.WithEpsilon(0)},
		{"eps negative", modis.WithEpsilon(-0.1)},
		{"budget negative", modis.WithBudget(-1)},
		{"maxlevel negative", modis.WithMaxLevel(-2)},
		{"decisive negative", modis.WithDecisive(-1)},
		{"alpha below", modis.WithAlpha(-0.01)},
		{"alpha above", modis.WithAlpha(1.01)},
		{"k zero", modis.WithK(0)},
		{"theta zero", modis.WithTheta(0)},
		{"theta above", modis.WithTheta(1.2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := modis.NewEngine(newTestConfig(t, nil)).Run(context.Background(), "bi", tc.opt)
			if err == nil {
				t.Fatal("want an eager validation error, got nil")
			}
		})
	}
}

func TestDecisiveRangeCheckedAgainstMeasures(t *testing.T) {
	eng := modis.NewEngine(newTestConfig(t, nil)) // two measures
	if _, err := eng.Run(context.Background(), "bi", modis.WithDecisive(2)); err == nil {
		t.Fatal("decisive index 2 of 2 measures must be rejected")
	}
	rep, err := eng.Run(context.Background(), "bi",
		modis.WithDecisive(0), modis.WithBudget(40), modis.WithMaxLevel(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Options.Decisive != 0 {
		t.Errorf("resolved decisive = %d, want 0", rep.Options.Decisive)
	}
}

func TestNilConfigSurfacesOnRun(t *testing.T) {
	if _, err := modis.NewEngine(nil).Run(context.Background(), "bi"); err == nil {
		t.Fatal("nil configuration must error on Run")
	}
}

func TestEngineReuseAcrossRuns(t *testing.T) {
	eng := modis.NewEngine(newTestConfig(t, nil))
	opts := []modis.Option{modis.WithBudget(60), modis.WithMaxLevel(3)}
	first, err := eng.Run(context.Background(), "apx", opts...)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Run(context.Background(), "apx", opts...)
	if err != nil {
		t.Fatal(err)
	}
	// The valuation record persists across runs of one engine, so the
	// identical second run is answered from memo; counters are per-run.
	if second.Valuated != 0 {
		t.Errorf("second identical run valuated %d states, want 0 (memoized)", second.Valuated)
	}
	if len(second.Skyline) == 0 || first.Valuated == 0 {
		t.Error("reused engine lost results")
	}
}

// syncShapeModel is shapeModel without the call counter: concurrent
// runs and parallel valuation require Evaluate to be re-entrant.
type syncShapeModel struct{ space *fst.Space }

func (m *syncShapeModel) Name() string { return "sync-shape" }

func (m *syncShapeModel) Evaluate(d *table.Table) ([]float64, error) {
	rows := float64(d.NumRows())
	cols := float64(d.NumCols())
	uRows := float64(m.space.Universal.NumRows())
	uCols := float64(m.space.Universal.NumCols())
	return []float64{
		0.1 + 0.9*(rows/uRows)*(cols/uCols),
		0.1 + 0.9*(1-rows/uRows),
	}, nil
}

func newConcurrentConfig(tb testing.TB) *fst.Config {
	tb.Helper()
	cfg := newTestConfig(tb, nil)
	cfg.Model = &syncShapeModel{space: cfg.Space}
	return cfg
}

// TestWithParallelismMatchesSequential: the pool is a wall-clock knob
// only — the report (skyline, member order, stats) is identical at any
// worker count, for every algorithm.
func TestWithParallelismMatchesSequential(t *testing.T) {
	for _, algo := range allAlgorithms() {
		t.Run(algo, func(t *testing.T) {
			run := func(par int) *modis.Report {
				rep, err := modis.NewEngine(newConcurrentConfig(t)).Run(context.Background(), algo,
					modis.WithBudget(90), modis.WithEpsilon(0.15), modis.WithMaxLevel(3),
					modis.WithSeed(2), modis.WithParallelism(par))
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			seq, par := run(1), run(4)
			if seq.Valuated != par.Valuated || seq.ExactCalls != par.ExactCalls ||
				seq.Levels != par.Levels || seq.Pruned != par.Pruned {
				t.Errorf("stats diverge: seq %+v par %+v", seq, par)
			}
			if len(seq.Skyline) != len(par.Skyline) {
				t.Fatalf("skyline sizes diverge: %d vs %d", len(seq.Skyline), len(par.Skyline))
			}
			for i := range seq.Skyline {
				a, b := seq.Skyline[i], par.Skyline[i]
				if a.Bits.Key() != b.Bits.Key() || len(a.Perf) != len(b.Perf) {
					t.Fatalf("skyline member %d diverges", i)
				}
				for j := range a.Perf {
					if a.Perf[j] != b.Perf[j] {
						t.Fatalf("member %d perf diverges: %v vs %v", i, a.Perf, b.Perf)
					}
				}
			}
		})
	}
}

// TestConcurrentEngineRuns: one engine serves concurrent Run calls
// against the shared memo (the roadmap's per-engine concurrency item).
// Run under -race in CI.
func TestConcurrentEngineRuns(t *testing.T) {
	eng := modis.NewEngine(newConcurrentConfig(t))
	algos := []string{"apx", "bi", "nobi", "div", "apx", "bi", "nobi", "div"}
	var wg sync.WaitGroup
	reports := make([]*modis.Report, len(algos))
	errs := make([]error, len(algos))
	// Unbudgeted maxLevel-2 runs explore exhaustively, so each run's
	// traversal is independent of what the memo already holds — the
	// repeat-run assertion below is then deterministic.
	for i, algo := range algos {
		wg.Add(1)
		go func(i int, algo string) {
			defer wg.Done()
			reports[i], errs[i] = eng.Run(context.Background(), algo,
				modis.WithMaxLevel(2), modis.WithParallelism(2))
		}(i, algo)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d (%s): %v", i, algos[i], err)
		}
		if len(reports[i].Skyline) == 0 {
			t.Errorf("run %d (%s): empty skyline", i, algos[i])
		}
	}
	// The shared memo means a repeat of an identical run answers without
	// any new valuations.
	rep, err := eng.Run(context.Background(), "apx", modis.WithMaxLevel(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valuated != 0 {
		t.Errorf("post-concurrency repeat valuated %d states, want 0 (memo shared)", rep.Valuated)
	}
}

// TestProgressEventsStream: every algorithm streams level events whose
// levels and valuation counts never decrease, then one final event that
// agrees with the report.
func TestProgressEventsStream(t *testing.T) {
	for _, algo := range allAlgorithms() {
		t.Run(algo, func(t *testing.T) {
			var events []modis.Event
			rep, err := modis.NewEngine(newTestConfig(t, nil)).Run(context.Background(), algo,
				modis.WithBudget(80), modis.WithMaxLevel(3),
				modis.WithProgress(func(ev modis.Event) { events = append(events, ev) }))
			if err != nil {
				t.Fatal(err)
			}
			if len(events) < 2 {
				t.Fatalf("got %d events, want level events plus a final one", len(events))
			}
			prevLevel, prevValuated := -1, -1
			for i, ev := range events {
				if ev.Algorithm != algo {
					t.Errorf("event algorithm = %q", ev.Algorithm)
				}
				if ev.Done != (i == len(events)-1) {
					t.Errorf("event %d: Done = %v; only the final event is done", i, ev.Done)
				}
				if ev.Level < prevLevel {
					t.Errorf("levels must be non-decreasing: %d after %d", ev.Level, prevLevel)
				}
				if ev.Valuated < prevValuated {
					t.Errorf("valuations must be non-decreasing: %d after %d", ev.Valuated, prevValuated)
				}
				prevLevel, prevValuated = ev.Level, ev.Valuated
				if ev.Valuated == 0 && !ev.Done {
					t.Error("level event with no valuations")
				}
			}
			last := events[len(events)-1]
			if last.Valuated != rep.Valuated {
				t.Errorf("final event Valuated = %d, report %d", last.Valuated, rep.Valuated)
			}
			if last.SkylineSize != len(rep.Skyline) {
				t.Errorf("final event SkylineSize = %d, report skyline has %d members", last.SkylineSize, len(rep.Skyline))
			}
		})
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep, err := modis.NewEngine(newTestConfig(t, nil)).Run(context.Background(), "div",
		modis.WithBudget(60), modis.WithMaxLevel(3), modis.WithK(3), modis.WithAlpha(0), modis.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded modis.Report
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Algorithm != "div" || decoded.Options.K != 3 || decoded.Options.Alpha != 0 ||
		decoded.Options.Seed != 7 || len(decoded.Skyline) != len(rep.Skyline) {
		t.Errorf("round trip lost fields: %s", blob)
	}
	// The job fields introduced with the async API survive the trip too.
	if decoded.JobID != rep.JobID || decoded.JobID == "" {
		t.Errorf("round trip lost job id: %q vs %q", decoded.JobID, rep.JobID)
	}
	if decoded.Queued != rep.Queued || decoded.Wall != rep.Wall {
		t.Errorf("round trip lost timing fields: %s", blob)
	}
	for i, c := range decoded.Skyline {
		if len(c.Bitmap) != len(rep.Skyline[i].Bitmap) || len(c.Perf) != len(rep.Skyline[i].Perf) {
			t.Errorf("candidate %d lost serialized state", i)
		}
	}
}

func TestDiversityHelper(t *testing.T) {
	a := &modis.Candidate{Bits: fst.BitmapOf(true, false), Perf: []float64{0.1, 0.9}}
	b := &modis.Candidate{Bits: fst.BitmapOf(false, true), Perf: []float64{0.9, 0.1}}
	if d := modis.Diversity([]*modis.Candidate{a, b}, 0.5, 1); d <= 0 {
		t.Errorf("distinct candidates must have positive diversity, got %v", d)
	}
	if d := modis.Diversity([]*modis.Candidate{a, a}, 0.5, 1); d > 1e-12 {
		t.Errorf("self diversity must be 0, got %v", d)
	}
}
