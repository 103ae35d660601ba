package main

// The traced pass of the in-process workloads: decorators installed from
// outside on the three seams the public API offers — fst.Config.Model,
// fst.Config.Est and modis.WithExactRunner — record a span per call into
// each layer. Nothing inside the program is edited; spans inside the
// program are a later change (ROADMAP item 2). This file and probes.go
// are the only ones that know internal types, so an API change there
// needs only a small follow-up here.

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"

	"repro/internal/fst"
	"repro/internal/skyline"
	"repro/internal/table"
	"repro/internal/workpool"
	"repro/modis"
)

// tracer owns the span recorder and the identity of the operation and
// valuation window currently open. The in-process workloads have one
// caller, so one operation and at most one window are open at a time;
// model calls arriving on pool workers attach to that window.
type tracer struct {
	rec    *recorder
	queue  *workpool.Queue
	op     atomic.Int64 // ordinal of the open operation
	opSpan atomic.Int64 // its span id
	window atomic.Int64 // open window span id, -1 when none
}

func newTracer() *tracer {
	t := &tracer{rec: newRecorder(), queue: workpool.Global().NewQueue("modisperf", 0)}
	t.window.Store(-1)
	return t
}

func (t *tracer) beginOp(op int, name string) {
	t.op.Store(int64(op))
	t.opSpan.Store(int64(t.rec.begin(op, name, -1)))
}

func (t *tracer) endOp() { t.rec.end(int(t.opSpan.Load()), "", 0) }

// begin opens a span under the open window if there is one, else under
// the operation.
func (t *tracer) begin(name string) int {
	parent := t.window.Load()
	if parent < 0 {
		parent = t.opSpan.Load()
	}
	return t.rec.begin(int(t.op.Load()), name, int(parent))
}

// instrument wraps the configuration's model and estimator and returns
// the option that routes the run's valuation windows through the tracer.
func (t *tracer) instrument(cfg *fst.Config) modis.Option {
	tm := &tracedModel{inner: cfg.Model, t: t}
	tm.rows, _ = cfg.Model.(fst.RowsModel)
	cfg.Model = tm
	if cfg.Est != nil {
		cfg.Est = &tracedEst{inner: cfg.Est, t: t}
	}
	return modis.WithExactRunner(tracedRunner{t})
}

// tracedModel times every exact model inference and records which
// valuation route it took.
type tracedModel struct {
	inner fst.Model
	rows  fst.RowsModel
	t     *tracer
}

func (m *tracedModel) Name() string { return m.inner.Name() }

func (m *tracedModel) Evaluate(d *table.Table) ([]float64, error) {
	id := m.t.begin("evaluate.table")
	raw, err := m.inner.Evaluate(d)
	m.t.rec.end(id, "", 0)
	return raw, err
}

func (m *tracedModel) EvaluateRows(v fst.RowsView) ([]float64, bool, error) {
	if m.rows == nil {
		return nil, false, nil
	}
	id := m.t.begin("evaluate.rows")
	raw, ok, err := m.rows.EvaluateRows(v)
	name := ""
	if !ok {
		name = "evaluate.declined"
	}
	m.t.rec.end(id, name, 0)
	return raw, ok, err
}

// tracedEst times the surrogate. It is called under the configuration's
// estimator mutex, so the spans exclude lock waits.
type tracedEst struct {
	inner fst.Estimator
	t     *tracer
}

func (e *tracedEst) Estimate(features []float64) (skyline.Vector, bool) {
	id := e.t.begin("estimate.ok")
	v, ok := e.inner.Estimate(features)
	name := ""
	if !ok {
		name = "estimate.miss"
	}
	e.t.rec.end(id, name, 0)
	return v, ok
}

func (e *tracedEst) Observe(features []float64, v skyline.Vector) {
	id := e.t.begin("observe")
	e.inner.Observe(features, v)
	e.t.rec.end(id, "", 0)
}

// tracedRunner is the run's fst.ExactRunner: it records one window span
// per batch of exact inferences and executes the batch exactly as the
// built-in path would — a single task inline, anything wider on a queue
// of the process-global pool — so the traced run keeps the untraced
// run's parallelism.
type tracedRunner struct{ t *tracer }

func (r tracedRunner) RunExact(_ context.Context, tasks []func()) {
	id := r.t.rec.begin(int(r.t.op.Load()), "window", int(r.t.opSpan.Load()))
	r.t.window.Store(int64(id))
	if len(tasks) == 1 {
		tasks[0]()
	} else {
		r.t.queue.Run(tasks)
	}
	r.t.window.Store(-1)
	r.t.rec.end(id, "", len(tasks))
}

// opAgg sums one operation's spans by layer.
type opAgg struct {
	evalNS, evalCalls, rowsCalls, tableCalls    int64
	windowNS, windowSelfNS, windows, windowSize int64
	estNS, estCalls, estOK, obsNS, coreSelfNS   int64
}

func (a *opAgg) add(b *opAgg) {
	a.evalNS += b.evalNS
	a.evalCalls += b.evalCalls
	a.rowsCalls += b.rowsCalls
	a.tableCalls += b.tableCalls
	a.windowNS += b.windowNS
	a.windowSelfNS += b.windowSelfNS
	a.windows += b.windows
	a.windowSize += b.windowSize
	a.estNS += b.estNS
	a.estCalls += b.estCalls
	a.estOK += b.estOK
	a.obsNS += b.obsNS
	a.coreSelfNS += b.coreSelfNS
}

func aggregate(spans []span) map[int]*opAgg {
	self := selfTimes(spans)
	out := map[int]*opAgg{}
	for i, s := range spans {
		a := out[s.Op]
		if a == nil {
			a = &opAgg{}
			out[s.Op] = a
		}
		switch {
		case strings.HasPrefix(s.Name, "op."):
			// op − windows − estimator: the search loop, plan and commit.
			a.coreSelfNS += self[i]
		case s.Name == "window":
			a.windows++
			a.windowSize += int64(s.N)
			a.windowNS += s.dur()
			// Window time not inside model calls: RowsFor or Materialize
			// and UDFs, normalisation, single-flight, pool dispatch.
			a.windowSelfNS += self[i]
		case s.Name == "evaluate.rows":
			a.evalNS += s.dur()
			a.evalCalls++
			a.rowsCalls++
		case s.Name == "evaluate.table":
			a.evalNS += s.dur()
			a.evalCalls++
			a.tableCalls++
		case s.Name == "estimate.ok":
			a.estOK++
			fallthrough
		case s.Name == "estimate.miss":
			a.estNS += s.dur()
			a.estCalls++
		case s.Name == "observe":
			a.obsNS += s.dur()
		}
	}
	return out
}

// layerMetrics derives the per-layer metrics of the traced operations.
// ops is indexed by operation ordinal, the Op field of the spans.
func (t *tracer) layerMetrics(m *measurement, ops []opRecord) {
	aggs := aggregate(t.rec.snapshot())
	var sum opAgg
	var n, valuated, exact, pruned, levels, members float64
	var overhead, queued []float64
	byAlgo := map[string][]float64{}
	type series struct{ est, core []float64 }
	byGroup := map[string]*series{}
	for id, rec := range ops {
		if !rec.Traced || rec.Err != nil {
			continue
		}
		a := aggs[id]
		if a == nil {
			a = &opAgg{}
		}
		n++
		sum.add(a)
		valuated += float64(rec.Rep.Valuated)
		exact += float64(rec.Rep.ExactCalls)
		pruned += float64(rec.Rep.Pruned)
		levels += float64(rec.Rep.Levels)
		members += float64(len(rec.Rep.Skyline))
		overhead = append(overhead, rec.MS-float64(rec.Rep.Wall)/1e6)
		queued = append(queued, float64(rec.Rep.Queued)/1e6)
		byAlgo[rec.Algo] = append(byAlgo[rec.Algo], rec.MS)
		g := byGroup[rec.Group]
		if g == nil {
			g = &series{}
			byGroup[rec.Group] = g
		}
		g.est = append(g.est, float64(a.estNS)/1e6)
		g.core = append(g.core, float64(a.coreSelfNS)/1e6)
	}
	if n == 0 {
		return
	}
	ops0 := int(n)
	perOpMS := func(ns int64) float64 { return float64(ns) / n / 1e6 }
	m.set("ml.evaluate_ms_per_op", perOpMS(sum.evalNS), ops0)
	m.set("ml.evaluate_calls_per_op", float64(sum.evalCalls)/n, ops0)
	m.set("ml.evaluate_us_per_call", ratio(float64(sum.evalNS)/1e3, float64(sum.evalCalls)), int(sum.evalCalls))
	m.set("fst.window_self_ms_per_op", perOpMS(sum.windowSelfNS), ops0)
	m.set("fst.rows_route_share", ratio(float64(sum.rowsCalls), float64(sum.evalCalls)), int(sum.evalCalls))
	m.set("fst.windows_per_op", float64(sum.windows)/n, ops0)
	m.set("fst.window_width_mean", ratio(float64(sum.windowSize), float64(sum.windows)), int(sum.windows))
	m.set("fst.exact_share", ratio(exact, valuated), ops0)
	m.set("estimator.estimate_ms_per_op", perOpMS(sum.estNS), ops0)
	m.set("estimator.estimate_calls_per_op", float64(sum.estCalls)/n, ops0)
	m.set("estimator.accept_share", ratio(float64(sum.estOK), float64(sum.estCalls)), int(sum.estCalls))
	m.set("estimator.observe_ms_per_op", perOpMS(sum.obsNS), ops0)
	m.set("core.self_ms_per_op", perOpMS(sum.coreSelfNS), ops0)
	m.set("core.pruned_per_op", pruned/n, ops0)
	m.set("core.levels_mean", levels/n, ops0)
	m.set("workpool.parallel_efficiency",
		ratio(float64(sum.evalNS), float64(sum.windowNS)*float64(runtime.GOMAXPROCS(0))), int(sum.windows))
	m.set("modis.run_overhead_ms", mean(overhead), ops0)
	m.set("modis.queued_ms_p50", percentile(queued, 0.5), ops0)
	m.set("skyline.size_mean", members/n, ops0)
	for algo, xs := range byAlgo {
		m.set("core.algo_p50_ms."+algo, percentile(xs, 0.5), len(xs))
	}
	if m.workload == "engine-aging" {
		// How much an engine's per-job cost grew over its life: the mean
		// of its last quarter of jobs over the mean of its first.
		var est, core []float64
		for _, g := range byGroup {
			est = append(est, growth(g.est))
			core = append(core, growth(g.core))
		}
		m.set("estimator.growth_ratio", median(est), len(est))
		m.set("core.self_growth_ratio", median(core), len(core))
	}
}

// growth is mean(last quarter) / mean(first quarter) of a series, 0 when
// the series is too short or starts at zero.
func growth(xs []float64) float64 {
	q := len(xs) / 4
	if q == 0 {
		return 0
	}
	first := mean(xs[:q])
	if first == 0 {
		return 0
	}
	return mean(xs[len(xs)-q:]) / first
}
