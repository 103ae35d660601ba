package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric the runner can emit. BENCHMARK.json lists
// exactly these names and units (a test holds the two in step).
type metricDef struct {
	Name string
	Unit string
	// LowerIsBetter is the direction a regression is judged in
	// (end-to-end metrics only).
	LowerIsBetter bool
}

// The five workloads, in the order the suite runs them.
var workloadNames = []string{"discover-cold", "discover-udf", "engine-aging", "serve-warm", "serve-append"}

// endToEnd are the metrics a user of the system sees; every workload
// emits every one of them from its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", true},
	{"op_p50_ms", "ms", true},
	{"op_p90_ms", "ms", true},
	{"ops_per_s", "1/s", false},
	{"peak_rss_mb", "MB", true},
}

// perLayer are the metrics of single layers, emitted by the traced run.
// A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// In-process decorators around the model, the estimator and the
	// exact runner.
	{Name: "ml.evaluate_ms_per_op", Unit: "ms"},
	{Name: "ml.evaluate_calls_per_op", Unit: "count"},
	{Name: "ml.evaluate_us_per_call", Unit: "us"},
	{Name: "fst.window_self_ms_per_op", Unit: "ms"},
	{Name: "fst.rows_route_share", Unit: "ratio"},
	{Name: "fst.windows_per_op", Unit: "count"},
	{Name: "fst.window_width_mean", Unit: "count"},
	{Name: "fst.exact_share", Unit: "ratio"},
	{Name: "estimator.estimate_ms_per_op", Unit: "ms"},
	{Name: "estimator.estimate_calls_per_op", Unit: "count"},
	{Name: "estimator.accept_share", Unit: "ratio"},
	{Name: "estimator.observe_ms_per_op", Unit: "ms"},
	{Name: "estimator.growth_ratio", Unit: "ratio"},
	{Name: "core.self_ms_per_op", Unit: "ms"},
	{Name: "core.self_growth_ratio", Unit: "ratio"},
	{Name: "core.algo_p50_ms.apx", Unit: "ms"},
	{Name: "core.algo_p50_ms.bi", Unit: "ms"},
	{Name: "core.algo_p50_ms.nobi", Unit: "ms"},
	{Name: "core.algo_p50_ms.div", Unit: "ms"},
	{Name: "core.algo_p50_ms.exact", Unit: "ms"},
	{Name: "core.pruned_per_op", Unit: "count"},
	{Name: "core.levels_mean", Unit: "count"},
	{Name: "workpool.parallel_efficiency", Unit: "ratio"},
	{Name: "workpool.speedup", Unit: "ratio"},
	{Name: "modis.run_overhead_ms", Unit: "ms"},
	{Name: "modis.queued_ms_p50", Unit: "ms"},
	{Name: "skyline.size_mean", Unit: "count"},
	{Name: "runtime.allocs_per_op", Unit: "count"},
	{Name: "runtime.gc_pause_ms_per_op", Unit: "ms"},
	{Name: "runtime.alloc_mb_per_op", Unit: "MB"},
	{Name: "runtime.heap_peak_mb", Unit: "MB"},
	{Name: "trace.overhead_share", Unit: "ratio"},
	// Direct probes of each layer's public functions.
	{Name: "fst.rowsfor_us", Unit: "us"},
	{Name: "fst.materialize_us", Unit: "us"},
	{Name: "fst.opgen_us", Unit: "us"},
	{Name: "fst.memo_get_ns", Unit: "ns"},
	{Name: "fst.space_build_ms", Unit: "ms"},
	{Name: "fst.append_ms", Unit: "ms"},
	{Name: "ml.view_us", Unit: "us"},
	{Name: "ml.encode_us", Unit: "us"},
	{Name: "ml.matrix_build_ms", Unit: "ms"},
	{Name: "ml.fit_ms.gbm", Unit: "ms"},
	{Name: "ml.fit_ms.forest", Unit: "ms"},
	{Name: "ml.fit_ms.histgbm", Unit: "ms"},
	{Name: "table.universal_ms", Unit: "ms"},
	{Name: "skyline.update_us", Unit: "us"},
	{Name: "skyline.kung_us", Unit: "us"},
	{Name: "workpool.dispatch_us", Unit: "us"},
	{Name: "wal.append_us", Unit: "us"},
	{Name: "wal.sync_ms", Unit: "ms"},
	{Name: "workload.hash_us", Unit: "us"},
	// Serving pass: client-side spans, wire fields, /metrics and
	// /healthz deltas — all from outside the daemon.
	{Name: "serve.submit_rtt_ms_p50", Unit: "ms"},
	{Name: "serve.queue_ms_p50", Unit: "ms"},
	{Name: "serve.search_ms_p50", Unit: "ms"},
	{Name: "serve.notify_lag_ms_p50", Unit: "ms"},
	{Name: "serve.healthz_rtt_ms_p50", Unit: "ms"},
	{Name: "serve.op_p99_ms", Unit: "ms"},
	{Name: "serve.write_p50_ms", Unit: "ms"},
	{Name: "serve.memo_hit_rate", Unit: "ratio"},
	{Name: "serve.exact_calls_per_op", Unit: "count"},
	{Name: "serve.merge_rate", Unit: "ratio"},
	{Name: "serve.batched_share", Unit: "ratio"},
	{Name: "serve.shed_count", Unit: "count"},
	{Name: "serve.client_retries", Unit: "count"},
	{Name: "workpool.service_ms_per_op", Unit: "ms"},
	{Name: "workpool.wait_ms_per_op", Unit: "ms"},
	{Name: "workpool.busy_share", Unit: "ratio"},
	{Name: "fst.memo_retained_share", Unit: "ratio"},
	{Name: "wal.records_flushed_per_op", Unit: "count"},
	{Name: "wal.bytes_per_op", Unit: "B"},
	{Name: "wal.pending_max", Unit: "count"},
	{Name: "wal.replay_ms", Unit: "ms"},
	{Name: "wal.replay_exact_calls", Unit: "count"},
	{Name: "proxy.status_hop_ms_p50", Unit: "ms"},
	{Name: "proxy.submit_hop_ms_p50", Unit: "ms"},
}

// measurement is what one run of one workload produced.
type measurement struct {
	workload  string
	attempted int
	failed    int
	// broken lists whole-run check failures that are not single
	// operations (a durability miss, a reference that could not be
	// computed); any entry makes the run incorrect.
	broken []string
	values map[string]float64
	// samples holds the sample count behind each timing metric.
	samples map[string]int
	// info lines describe the run for the human reader (loop kind,
	// client count, sizes).
	info []string
}

func newMeasurement(workload string) *measurement {
	return &measurement{workload: workload, values: map[string]float64{}, samples: map[string]int{}}
}

func (m *measurement) set(name string, v float64, samples int) {
	m.values[name] = v
	if samples > 0 {
		m.samples[name] = samples
	}
}

func (m *measurement) correct() bool { return m.failed == 0 && len(m.broken) == 0 }

// wireMetric and wireResult are the result line the driver parses.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

func (m *measurement) wire(defs []metricDef) wireResult {
	out := wireResult{Correct: m.correct(), Attempted: m.attempted, Failed: m.failed, Metrics: map[string]wireMetric{}}
	for _, d := range defs {
		out.Metrics[d.Name] = wireMetric{Value: m.values[d.Name], Unit: d.Unit}
	}
	return out
}

// print writes the human-readable table followed by the one-line JSON
// result, which must stay the last line of standard output.
func (m *measurement) print(w io.Writer, defs []metricDef) error {
	fmt.Fprintf(w, "workload %s\n", m.workload)
	for _, line := range m.info {
		fmt.Fprintf(w, "  %s\n", line)
	}
	for _, d := range defs {
		note := ""
		if n, ok := m.samples[d.Name]; ok {
			note = fmt.Sprintf("  (n=%d)", n)
			if q, isPct := percentileOf(d.Name); isPct && !supported(n, q) {
				note = fmt.Sprintf("  (n=%d, fewer than ten samples beyond it)", n)
			}
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s%s\n", d.Name, m.values[d.Name], d.Unit, note)
	}
	sort.Strings(m.broken)
	for _, b := range m.broken {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", b)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", m.attempted, m.failed, m.correct())
	blob, err := json.Marshal(m.wire(defs))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

// percentileOf recognises the percentile metrics by name.
func percentileOf(name string) (float64, bool) {
	switch name {
	case "op_p90_ms":
		return 0.90, true
	case "serve.op_p99_ms":
		return 0.99, true
	}
	return 0, false
}
