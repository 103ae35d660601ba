// Package exp drives the reproduction of every table and figure of the
// MODis paper's evaluation (Section 6 and Appendix B). Each experiment
// returns printable rows so the same code backs the modisbench binary
// and the testing.B benchmarks in the repository root.
package exp

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/datagen"
	"repro/internal/fst"
	"repro/internal/skyline"
	"repro/modis"
)

// MethodResult is one method's outcome on a workload: the actual
// (inference-tested) normalized performance vector of its output table,
// the output size, and discovery wall time.
type MethodResult struct {
	Method  string
	Perf    skyline.Vector
	Rows    int
	Cols    int
	Elapsed time.Duration
	// SkylineSize is the ε-skyline cardinality (MODis methods only).
	SkylineSize int
	Valuated    int
}

// Report is a printable experiment result.
type Report struct {
	Title   string
	Header  []string
	RowsOut [][]string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.RowsOut {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for _, row := range r.RowsOut {
		writeRow(row)
	}
	return b.String()
}

// DefaultParallelism is the valuation worker count every experiment
// run uses unless its options say otherwise: 1 (sequential) by
// default, settable by harness front-ends (cmd/modisbench -parallel; 0
// = all CPUs). Parallelism never changes results — only wall time.
var DefaultParallelism = 1

// MODisOptions are the default discovery knobs of the comparison
// experiments (ε = 0.1, maxl = 6, modest budget) at DefaultParallelism.
// Sweeps append their overrides: a later option wins.
func MODisOptions() []modis.Option {
	return []modis.Option{
		modis.WithBudget(300),
		modis.WithEpsilon(0.1),
		modis.WithMaxLevel(6),
		modis.WithSeed(1),
		modis.WithParallelism(DefaultParallelism),
	}
}

// runMODis executes one MODis algorithm through the public engine,
// materializes the skyline table with the best value on selectIdx (the
// paper selects by the task's first measure for cross-method
// comparison), and re-tests it with real model inference.
func runMODis(ctx context.Context, w *datagen.Workload, name, key string,
	opts []modis.Option, selectIdx int) (*MethodResult, error) {

	rep, err := modis.NewEngine(w.NewConfig(true)).Run(ctx, key, opts...)
	if err != nil {
		return nil, fmt.Errorf("exp: %s on %s: %w", name, w.Name, err)
	}
	if len(rep.Skyline) == 0 {
		return nil, fmt.Errorf("exp: %s on %s: empty skyline", name, w.Name)
	}
	// The skyline is small; verify every member with real model
	// inference and report the one best on the selection measure, as the
	// paper does ("we apply model inference to all the output tables to
	// report actual performance values").
	var bestPerf skyline.Vector
	var bestRows, bestCols int
	for _, c := range rep.Skyline {
		out := w.Space.Materialize(c.Bits)
		perf, err := baselines.EvalTable(w, out)
		if err != nil {
			return nil, err
		}
		if bestPerf == nil || perf[selectIdx] < bestPerf[selectIdx] {
			bestPerf = perf
			bestRows, bestCols = out.NumRows(), out.NumCols()
		}
	}
	return &MethodResult{
		Method:      name,
		Perf:        bestPerf,
		Rows:        bestRows,
		Cols:        bestCols,
		Elapsed:     rep.Wall,
		SkylineSize: len(rep.Skyline),
		Valuated:    rep.Valuated,
	}, nil
}

// RunAllMethods evaluates Original, the baselines, and the four MODis
// algorithms on a workload, the setting of Tables 4-6.
func RunAllMethods(ctx context.Context, w *datagen.Workload, opts []modis.Option, selectIdx int) ([]*MethodResult, error) {
	var out []*MethodResult

	orig, err := baselines.EvalTable(w, w.Lake.Universal)
	if err != nil {
		return nil, err
	}
	out = append(out, &MethodResult{
		Method: "Original",
		Perf:   orig,
		Rows:   w.Lake.Universal.NumRows(),
		Cols:   w.Lake.Universal.NumCols(),
	})

	type bl struct {
		name string
		run  func() (*baselines.Output, error)
	}
	for _, b := range []bl{
		{"METAM", func() (*baselines.Output, error) { return baselines.METAM(w, selectIdx) }},
		{"METAM-MO", func() (*baselines.Output, error) { return baselines.METAMMO(w) }},
		{"Starmie", func() (*baselines.Output, error) { return baselines.Starmie(w, 0.25) }},
		{"SkSFM", func() (*baselines.Output, error) { return baselines.SkSFM(w) }},
		{"H2O", func() (*baselines.Output, error) { return baselines.H2O(w) }},
	} {
		start := time.Now()
		o, err := b.run()
		if err != nil {
			return nil, fmt.Errorf("exp: baseline %s: %w", b.name, err)
		}
		out = append(out, &MethodResult{
			Method:  b.name,
			Perf:    o.Perf,
			Rows:    o.Table.NumRows(),
			Cols:    o.Table.NumCols(),
			Elapsed: time.Since(start),
		})
	}

	for _, m := range modisMethods() {
		r, err := runMODis(ctx, w, m.name, m.key, opts, selectIdx)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// modisMethod pairs a display name with the engine registry key that
// runs it — the registry replaces the per-consumer function-pointer
// tables the binaries used to carry.
type modisMethod struct {
	name string
	key  string
}

func modisMethods() []modisMethod {
	return []modisMethod{
		{"ApxMODis", "apx"},
		{"NOBiMODis", "nobi"},
		{"BiMODis", "bi"},
		{"DivMODis", "div"},
	}
}

// RunMODisOnly evaluates just the four MODis algorithms (Table 5's
// setting for T5).
func RunMODisOnly(ctx context.Context, w *datagen.Workload, opts []modis.Option, selectIdx int) ([]*MethodResult, error) {
	orig, err := baselines.EvalTable(w, w.Lake.Universal)
	if err != nil {
		return nil, err
	}
	out := []*MethodResult{{
		Method: "Original",
		Perf:   orig,
		Rows:   w.Lake.Universal.NumRows(),
		Cols:   w.Lake.Universal.NumCols(),
	}}
	for _, m := range modisMethods() {
		r, err := runMODis(ctx, w, m.name, m.key, opts, selectIdx)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ComparisonReport lays out method results as the paper's comparison
// tables: one row per measure, one column per method, plus output size.
// Measures are reported in raw "higher is better" orientation where the
// paper does (accuracy-like), i.e. we print the normalized minimize
// values — smaller is better — to stay unambiguous.
func ComparisonReport(title string, w *datagen.Workload, results []*MethodResult) *Report {
	header := []string{"measure"}
	for _, r := range results {
		header = append(header, r.Method)
	}
	rep := &Report{Title: title, Header: header}
	for mi, m := range w.Measures {
		row := []string{m.Name}
		for _, r := range results {
			row = append(row, fmt.Sprintf("%.4f", r.Perf[mi]))
		}
		rep.RowsOut = append(rep.RowsOut, row)
	}
	sizeRow := []string{"size(r,c)"}
	timeRow := []string{"disc.time"}
	for _, r := range results {
		sizeRow = append(sizeRow, fmt.Sprintf("(%d,%d)", r.Rows, r.Cols))
		timeRow = append(timeRow, r.Elapsed.Round(time.Millisecond).String())
	}
	rep.RowsOut = append(rep.RowsOut, sizeRow, timeRow)
	return rep
}

// RImp computes the paper's relative improvement M(D_M).p / M(D_o).p for
// a measure index (both normalized to minimize, so larger is better).
func RImp(orig, out skyline.Vector, idx int) float64 {
	if idx >= len(orig) || idx >= len(out) {
		return 0
	}
	// Floor the denominator: saturated measures (normalization floor)
	// would otherwise explode the ratio into meaninglessness.
	den := out[idx]
	if den < 0.01 {
		den = 0.01
	}
	return orig[idx] / den
}

// adomContribution computes, for a diversified skyline set, the share of
// surviving literal entries per attribute — the content-diversity
// heatmap of Fig. 9(b). It returns the per-attribute percentages sorted
// by attribute name and their standard deviation.
func adomContribution(w *datagen.Workload, cands []*modis.Candidate) (attrs []string, pct []float64, std float64) {
	perAttr := map[string]float64{}
	var total float64
	for _, c := range cands {
		c.Bits.ForEachSet(func(i int) {
			e := w.Space.Entries[i]
			if e.Kind != fst.EntryLiteral {
				return
			}
			perAttr[e.Attr]++
			total++
		})
	}
	for a := range perAttr {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	pct = make([]float64, len(attrs))
	var mean float64
	for i, a := range attrs {
		if total > 0 {
			pct[i] = perAttr[a] / total
		}
		mean += pct[i]
	}
	if len(pct) == 0 {
		return attrs, pct, 0
	}
	mean /= float64(len(pct))
	for _, p := range pct {
		std += (p - mean) * (p - mean)
	}
	std = math.Sqrt(std / float64(len(pct)))
	return attrs, pct, std
}
