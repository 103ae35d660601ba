package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.9, 46}, // 0.9 → position 3.6 → 40 + 0.6·10
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if xs[0] != 50 {
		t.Error("percentile sorted its argument in place")
	}
}

// The sample-count rule: a percentile needs ten samples beyond it.
func TestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.9, false}, {100, 0.9, true}, {999, 0.99, false}, {1000, 0.99, true}, {19, 0.5, false}, {20, 0.5, true},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4), which the
// driver uses; the expected values below were computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if !near(q1, 1) || !near(q2, 3) || !near(q3, 4.5) {
		t.Errorf("quartiles(3,1,4,1,5) = %v %v %v, want 1 3 4.5", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening(100, 110, true); !near(got, 0.1) {
		t.Errorf("latency 100→110 worsened by %v, want 0.1", got)
	}
	if got := worsening(100, 90, false); !near(got, 0.1) {
		t.Errorf("throughput 100→90 worsened by %v, want 0.1", got)
	}
	if got := worsening(100, 90, true); got >= 0 {
		t.Errorf("latency 100→90 reads as worse (%v)", got)
	}
}

// Self time is the span minus the union of its direct children, clipped
// to the span: overlapping children (parallel model calls) count once,
// grandchildren do not count against the grandparent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Op: 0, Name: "op.bi", Start: 0, End: 100, Parent: -1},
		{Op: 0, Name: "window", Start: 10, End: 60, Parent: 0},
		{Op: 0, Name: "evaluate.rows", Start: 12, End: 40, Parent: 1},
		{Op: 0, Name: "evaluate.rows", Start: 30, End: 58, Parent: 1}, // overlaps the first by 10
		{Op: 0, Name: "estimate.ok", Start: 70, End: 80, Parent: 0},
		{Op: 0, Name: "observe", Start: 95, End: 120, Parent: 0}, // runs past its parent: clipped to 5
	}
	want := []int64{100 - 50 - 10 - 5, 50 - 46, 28, 28, 10, 25}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	agg := aggregate(spans)[0]
	if agg.coreSelfNS != 35 || agg.windowSelfNS != 4 || agg.evalNS != 56 || agg.evalCalls != 2 || agg.estOK != 1 || agg.obsNS != 25 {
		t.Errorf("aggregate = %+v", *agg)
	}
}

func TestRecorderKeepsOutcome(t *testing.T) {
	r := newRecorder()
	op := r.begin(3, "op.apx", -1)
	w := r.begin(3, "window", op)
	r.end(w, "", 7)
	e := r.begin(3, "estimate.ok", op)
	r.end(e, "estimate.miss", 0)
	r.end(op, "", 0)
	s := r.snapshot()
	if len(s) != 3 || s[1].N != 7 || s[1].Parent != op || s[2].Name != "estimate.miss" || s[0].End < s[2].End {
		t.Errorf("recorded spans = %+v", s)
	}
}

// The names the runner can emit are exactly the names BENCHMARK.json
// declares, with the same units, and obey the contract's alphabet.
func TestNamesMatchContract(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var con struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &con); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("metric %q (unit %q) is outside the contract's alphabet", n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(con.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the runner has %d", len(con.Workloads), len(workloadNames))
	}
	for i, w := range con.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %q, the runner %q", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
		check(w.Name, "count")
	}
	if len(con.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the runner emits %d", len(con.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range con.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || (m.Better == "lower") != d.LowerIsBetter {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the runner %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		check(m.Name, m.Unit)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(con.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the runner emits %d (at most 128)", len(con.PerLayer), len(perLayer))
	}
	for i, m := range con.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("per-layer %d: BENCHMARK.json has %s [%s], the runner %s [%s]", i, m.Name, m.Unit, d.Name, d.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		check(m.Name, m.Unit)
	}
}

// A measurement's result line carries every declared metric, applicable
// or not, and nothing else.
func TestWireCarriesEveryMetric(t *testing.T) {
	m := newMeasurement("serve-warm")
	m.attempted = 3
	m.set("op_p50_ms", 1.5, 3)
	m.set("not.declared", 9, 0)
	w := m.wire(endToEnd)
	if len(w.Metrics) != len(endToEnd) || w.Metrics["op_p50_ms"].Value != 1.5 || w.Metrics["setup_s"].Unit != "s" {
		t.Errorf("wire = %+v", w)
	}
	if !w.Correct || w.Attempted != 3 || w.Failed != 0 {
		t.Errorf("wire verdict = %+v", w)
	}
	m.broken = append(m.broken, "durability")
	if m.wire(endToEnd).Correct {
		t.Error("a broken whole-run check left the run correct")
	}
}
