package exp

import (
	"context"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/fst"
	"repro/internal/skyline"
	"repro/modis"
)

func TestReportString(t *testing.T) {
	r := &Report{
		Title:  "demo",
		Header: []string{"a", "bb"},
		RowsOut: [][]string{
			{"x", "1"},
			{"longer", "2"},
		},
	}
	s := r.String()
	if !strings.Contains(s, "== demo ==") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4", len(lines))
	}
	// Columns aligned: header 'a' padded to width of 'longer'.
	if !strings.HasPrefix(lines[1], "a     ") {
		t.Errorf("misaligned header: %q", lines[1])
	}
}

func TestRImp(t *testing.T) {
	orig := skyline.Vector{0.8, 0.4}
	out := skyline.Vector{0.4, 0.4}
	if got := RImp(orig, out, 0); got != 2 {
		t.Errorf("RImp = %v, want 2", got)
	}
	if got := RImp(orig, out, 5); got != 0 {
		t.Error("out-of-range index should yield 0")
	}
}

func TestAdomContribution(t *testing.T) {
	w := datagen.T1Movie(datagen.TaskConfig{Rows: 100})
	full := w.Space.FullBitmap()
	cands := []*modis.Candidate{{Bits: full, Perf: []float64{0.5, 0.5, 0.5, 0.5}}}
	attrs, pct, std := adomContribution(w, cands)
	if len(attrs) == 0 || len(pct) != len(attrs) {
		t.Fatal("no contributions computed")
	}
	var sum float64
	for _, p := range pct {
		sum += p
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("contributions sum to %v, want 1", sum)
	}
	if std < 0 {
		t.Error("negative std")
	}
}

func TestRunMODisOnlySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	w := datagen.T3Avocado(datagen.TaskConfig{Rows: 120})
	opts := []modis.Option{modis.WithBudget(60), modis.WithEpsilon(0.2), modis.WithMaxLevel(3), modis.WithSeed(1)}
	rs, err := RunMODisOnly(context.Background(), w, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 { // Original + 4 MODis algorithms
		t.Fatalf("results = %d, want 5", len(rs))
	}
	rep := ComparisonReport("t", w, rs)
	// One row per measure + size + time.
	if len(rep.RowsOut) != len(w.Measures)+2 {
		t.Errorf("report rows = %d", len(rep.RowsOut))
	}
}

func TestRunAllMethodsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	w := datagen.T3Avocado(datagen.TaskConfig{Rows: 120})
	opts := []modis.Option{modis.WithBudget(60), modis.WithEpsilon(0.2), modis.WithMaxLevel(3), modis.WithSeed(1)}
	rs, err := RunAllMethods(context.Background(), w, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 10 { // Original + 5 baselines + 4 MODis
		t.Fatalf("results = %d, want 10", len(rs))
	}
	for _, r := range rs {
		if len(r.Perf) != len(w.Measures) {
			t.Errorf("%s vector len %d", r.Method, len(r.Perf))
		}
	}
}

var _ = fst.Forward // keep the import for future expansions
