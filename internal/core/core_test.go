package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/fst"
	"repro/internal/skyline"
	"repro/internal/table"
)

// additiveModel is a synthetic model whose measures are additive over
// the cleared bitmap entries: measure j of a state equals base_j minus
// the sum of per-entry gains, floored. Monotone and cheap, it lets the
// algorithm tests assert exact quality properties.
type additiveModel struct {
	space *fst.Space
	// gain[i][j] is the reduction of measure j when entry i clears.
	gain [][]float64
	base []float64
}

func (m *additiveModel) Name() string { return "additive" }

func (m *additiveModel) Evaluate(d *table.Table) ([]float64, error) {
	// Recover which entries are cleared by comparing with the universal
	// table: the model only depends on the dataset's surviving rows and
	// schema, so derive the measure from the table shape directly.
	rows := float64(d.NumRows())
	cols := float64(d.NumCols())
	uRows := float64(m.space.Universal.NumRows())
	uCols := float64(m.space.Universal.NumCols())
	out := make([]float64, len(m.base))
	// Two opposing measures: one improves as the table shrinks (cost),
	// one degrades (completeness), creating a genuine trade-off.
	out[0] = 0.1 + 0.9*(rows/uRows)*(cols/uCols) // cost-like
	out[1] = 0.1 + 0.9*(1-rows/uRows)            // loss-like
	for j := 2; j < len(out); j++ {
		out[j] = m.base[j]
	}
	return out, nil
}

func newTestConfig(t *testing.T, nMeasures int) *fst.Config {
	t.Helper()
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
	m := &additiveModel{space: sp, base: make([]float64, nMeasures)}
	for j := range m.base {
		m.base[j] = 0.5
	}
	measures := make([]fst.Measure, nMeasures)
	for j := range measures {
		measures[j] = fst.Measure{Name: "p" + string(rune('0'+j)), Normalize: fst.Identity(1e-3)}
	}
	return &fst.Config{Space: sp, Model: m, Measures: measures}
}

// tuned is DefaultOptions for the two-measure test configuration with
// the budget N, ε and level cap maxl set.
func tuned(n int, eps float64, maxl int) Options {
	o := DefaultOptions(2)
	o.N, o.Eps, o.MaxLevel = n, eps, maxl
	return o
}

func TestApxMODisProducesEpsSkyline(t *testing.T) {
	cfg := newTestConfig(t, 2)
	res, err := ApxMODis(context.Background(), cfg, tuned(80, 0.2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skyline) == 0 {
		t.Fatal("empty skyline")
	}
	// ε-skyline property (Section 5.1): every valuated state is
	// ε-dominated by some skyline member.
	var all []skyline.Vector
	for _, tst := range cfg.Tests.All() {
		all = append(all, tst.Perf)
	}
	if !skyline.IsEpsSkylineOf(res.Vectors(), all, 0.2) {
		t.Error("output is not an ε-skyline of the valuated states")
	}
	// Members mutually non-dominated.
	vs := res.Vectors()
	for i := range vs {
		for j := range vs {
			if i != j && vs[i].Dominates(vs[j]) {
				t.Error("skyline members must be mutually non-dominated")
			}
		}
	}
}

func TestApxMODisRespectsBudget(t *testing.T) {
	cfg := newTestConfig(t, 2)
	res, err := ApxMODis(context.Background(), cfg, tuned(10, 0.2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Valuated > 10 {
		t.Errorf("valuated %d states, budget was 10", res.Stats.Valuated)
	}
}

func TestApxMODisRespectsMaxLevel(t *testing.T) {
	cfg := newTestConfig(t, 2)
	res, err := ApxMODis(context.Background(), cfg, tuned(10000, 0.2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Levels > 2 {
		t.Errorf("reached level %d, max was 2", res.Stats.Levels)
	}
}

func TestApxMODisFindsTradeoff(t *testing.T) {
	cfg := newTestConfig(t, 2)
	res, err := ApxMODis(context.Background(), cfg, tuned(200, 0.1, 5))
	if err != nil {
		t.Fatal(err)
	}
	// The cost measure (index 0) improves by reduction; the skyline's
	// best cost must beat the universal state's.
	orig, _ := cfg.Valuate(cfg.Space.FullBitmap())
	best := res.Best(0)
	if best == nil || best.Perf[0] >= orig[0] {
		t.Errorf("reduction should improve the cost measure: best %v orig %v", best.Perf, orig)
	}
}

func TestBiMODisProducesEpsSkyline(t *testing.T) {
	cfg := newTestConfig(t, 2)
	res, err := BiMODis(context.Background(), cfg, tuned(120, 0.2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skyline) == 0 {
		t.Fatal("empty skyline")
	}
	var all []skyline.Vector
	for _, tst := range cfg.Tests.All() {
		all = append(all, tst.Perf)
	}
	// Pruned states were never valuated, so the ε-skyline property is
	// asserted over the valuated set, as in Lemma 4's statement.
	if !skyline.IsEpsSkylineOf(res.Vectors(), all, 0.2) {
		t.Error("BiMODis output is not an ε-skyline of valuated states")
	}
}

func TestNOBiMODisNeverPrunes(t *testing.T) {
	cfg := newTestConfig(t, 2)
	res, err := NOBiMODis(context.Background(), cfg, tuned(100, 0.2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Pruned != 0 {
		t.Errorf("NOBiMODis pruned %d states, want 0", res.Stats.Pruned)
	}
}

func TestBiMODisBackwardReachesSmallStates(t *testing.T) {
	cfg := newTestConfig(t, 2)
	res, err := BiMODis(context.Background(), cfg, tuned(150, 0.15, 4))
	if err != nil {
		t.Fatal(err)
	}
	// The backward frontier starts from a reduced table, so the skyline
	// should contain at least one candidate below the full bitmap even
	// when the frontiers meet early (this space is only 9 entries wide).
	full := cfg.Space.Size()
	foundReduced := false
	for _, c := range res.Skyline {
		if c.Bits.Ones() < full {
			foundReduced = true
		}
	}
	if !foundReduced {
		t.Error("bi-directional search found no reduced candidates")
	}
}

func TestDivMODisRespectsK(t *testing.T) {
	cfg := newTestConfig(t, 2)
	opts := tuned(150, 0.05, 4)
	opts.K, opts.Seed = 3, 1
	res, err := DivMODis(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skyline) > 3+1 {
		// finalize may keep at most the restricted set; allow the grid to
		// have re-admitted at most one newcomer after the last restrict.
		t.Errorf("diversified skyline size = %d, want <= k(+1)", len(res.Skyline))
	}
}

func TestDivScoreMonotoneInSetSize(t *testing.T) {
	a := &Candidate{Bits: fst.BitmapOf(true, false), Perf: skyline.Vector{0.1, 0.9}}
	b := &Candidate{Bits: fst.BitmapOf(false, true), Perf: skyline.Vector{0.9, 0.1}}
	c := &Candidate{Bits: fst.BitmapOf(true, true), Perf: skyline.Vector{0.5, 0.5}}
	d2 := Div([]*Candidate{a, b}, 0.5, 1)
	d3 := Div([]*Candidate{a, b, c}, 0.5, 1)
	if d3 <= d2 {
		t.Errorf("Div must grow with the set: %v vs %v", d2, d3)
	}
}

func TestDisSymmetricAndZeroOnSelf(t *testing.T) {
	a := &Candidate{Bits: fst.BitmapOf(true, false), Perf: skyline.Vector{0.1, 0.9}}
	b := &Candidate{Bits: fst.BitmapOf(false, true), Perf: skyline.Vector{0.9, 0.1}}
	if Dis(a, b, 0.5, 1) != Dis(b, a, 0.5, 1) {
		t.Error("Dis must be symmetric")
	}
	if Dis(a, a, 0.5, 1) > 1e-12 {
		t.Error("Dis(a,a) must be 0")
	}
}

// TestDisMatchesEquation2 checks dis against a hand computation of
// α·(1-cos(Li, Lj))/2 + (1-α)·euc(Pi, Pj)/eucm: the bitmaps share one
// of their two set entries (cos 1/2, content term 1/4), the vectors are
// 5 apart and eucm is 10 (performance term 1/2), so at α = 0.3 dis is
// 0.3·0.25 + 0.7·0.5 = 0.425.
func TestDisMatchesEquation2(t *testing.T) {
	a := &Candidate{Bits: fst.BitmapOf(true, true, false, false), Perf: skyline.Vector{0, 0}}
	b := &Candidate{Bits: fst.BitmapOf(true, false, true, false), Perf: skyline.Vector{3, 4}}
	if got := Dis(a, b, 0.3, 10); math.Abs(got-0.425) > 1e-12 {
		t.Errorf("Dis = %v, want 0.425", got)
	}
}

// TestDisZeroAlphaIgnoresContent: with α = 0 the content term vanishes,
// so two disjoint bitmaps with equal vectors are at distance 0.
func TestDisZeroAlphaIgnoresContent(t *testing.T) {
	a := &Candidate{Bits: fst.BitmapOf(true, false), Perf: skyline.Vector{0.3, 0.3}}
	b := &Candidate{Bits: fst.BitmapOf(false, true), Perf: skyline.Vector{0.3, 0.3}}
	if Dis(a, b, 0, 1) != 0 {
		t.Error("α = 0 must ignore content distance")
	}
}

// TestMaxEucIsPairwiseMax checks the normalizer eucm against a brute
// force over every pair of recorded vectors. The closest pair (√2
// apart) comes first and the farthest (10 apart) is neither first nor
// last.
func TestMaxEucIsPairwiseMax(t *testing.T) {
	perfs := []skyline.Vector{{1, 1}, {0, 0}, {3, 4}, {6, 8}}
	tests := make([]*fst.Test, len(perfs))
	for i, p := range perfs {
		tests[i] = &fst.Test{Key: fst.StateKey(i + 1), Perf: p}
	}
	want := 0.0
	for i := range perfs {
		for j := range perfs {
			want = math.Max(want, math.Hypot(perfs[i][0]-perfs[j][0], perfs[i][1]-perfs[j][1]))
		}
	}
	if want != 10 {
		t.Fatalf("brute-force maximum = %v, want 10", want)
	}
	if got := maxEuc(tests); math.Abs(got-want) > 1e-12 {
		t.Errorf("maxEuc = %v, want %v", got, want)
	}
}

// TestSearchRejectsUnresolvedOptions: search reads its options as given,
// so a zero ε or a decisive index outside the measures is an error, not
// a silent default.
func TestSearchRejectsUnresolvedOptions(t *testing.T) {
	outOfRange := DefaultOptions(2)
	outOfRange.Decisive = 2
	for _, opts := range []Options{{}, outOfRange} {
		if _, err := ApxMODis(context.Background(), newTestConfig(t, 2), opts); err == nil {
			t.Errorf("options ε %v, decisive %d over 2 measures: want an error", opts.Eps, opts.Decisive)
		}
	}
}

func TestResultBest(t *testing.T) {
	r := &Result{Skyline: []*Candidate{
		{Perf: skyline.Vector{0.5, 0.2}},
		{Perf: skyline.Vector{0.3, 0.8}},
	}}
	if r.Best(0).Perf[0] != 0.3 {
		t.Error("Best(0) wrong")
	}
	if r.Best(1).Perf[1] != 0.2 {
		t.Error("Best(1) wrong")
	}
	empty := &Result{}
	if empty.Best(0) != nil {
		t.Error("empty result Best should be nil")
	}
}

func TestGridUParetoReplacement(t *testing.T) {
	cfg := newTestConfig(t, 2)
	cfg.Validate()
	g := newGrid(cfg, 0.3, 1)
	b1 := cfg.Space.FullBitmap()
	// Same grid cell, second wins on decisive measure (index 1).
	if !g.upareto(b1, skyline.Vector{0.5, 0.9}) {
		t.Fatal("first candidate should enter")
	}
	if !g.upareto(b1, skyline.Vector{0.5, 0.4}) {
		t.Fatal("better decisive should replace")
	}
	if g.upareto(b1, skyline.Vector{0.5, 0.8}) {
		t.Fatal("worse decisive must not replace")
	}
	ms := g.members()
	if len(ms) != 1 || ms[0].Perf[1] != 0.4 {
		t.Errorf("grid members = %v", ms)
	}
}

func TestGridBoundsEarlySkip(t *testing.T) {
	cfg := newTestConfig(t, 2)
	cfg.Measures[0].Bounds = skyline.Bounds{Lower: 0.01, Upper: 0.3}
	cfg.Validate()
	g := newGrid(cfg, 0.2, 1)
	// The candidate violates measure 0's upper bound: it may still guide
	// expansion (search grid) but must not enter the output skyline.
	g.upareto(cfg.Space.FullBitmap(), skyline.Vector{0.5, 0.5})
	if len(g.members()) != 0 {
		t.Error("bound-violating candidate leaked into the output skyline")
	}
}

func TestCanPrune(t *testing.T) {
	members := []*Candidate{{Perf: skyline.Vector{0.2, 0.2}}}
	if !canPrune(members, skyline.Vector{0.5, 0.5}, 0.1) {
		t.Error("optimistic bound clearly dominated should prune")
	}
	if canPrune(members, skyline.Vector{0.1, 0.1}, 0.1) {
		t.Error("promising bound must not prune")
	}
}
