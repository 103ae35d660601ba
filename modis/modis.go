// Package modis is the public API of the MODis reproduction: skyline
// dataset discovery over a configured search space (Wang et al., EDBT
// 2025). It is the one stable surface over the search substrate in
// internal/core — binaries, examples, and tests run algorithms through
// it rather than picking internal function pointers.
//
// An [Engine] is constructed once per configuration and reused across
// runs; the memo of valuations carries over, so repeated or
// overlapping runs get cheaper, while each run decides from its own
// tests (the paper's test set T). Algorithms are
// selected by key — "apx", "bi", "nobi" (bi without
// correlation-based pruning), "div", "exact" — and tuned with
// functional options that validate eagerly instead of silently
// defaulting:
//
//	eng := modis.NewEngine(w.NewConfig(true))
//	rep, err := eng.Run(ctx, "bi",
//		modis.WithBudget(300),
//		modis.WithEpsilon(0.1),
//		modis.WithMaxLevel(6),
//	)
//
// A knob no option sets keeps the paper's default (ε 0.1, θ 0.8, k 5,
// α 0.5, the last measure decisive, unbounded budget and depth); a
// knob an option sets, zero included, means exactly what it says, and
// a later option overrides an earlier one.
//
// Every run honors its context: cancellation or deadline expiry is
// checked at frontier-pop granularity inside the search loops and
// surfaces as ctx.Err() with no partial result. [WithProgress] streams
// per-level snapshots (frontier size, valuations used, incumbent
// skyline size) while a search runs, and the result is a
// JSON-serializable [Report].
//
// # The job API
//
// Run is the synchronous face of an asynchronous job model.
// [Engine.Submit] starts the same run and returns a [Job] handle
// immediately: [Job.Done] closes on termination, [Job.Result] blocks
// for the report, [Job.Cancel] aborts, and [Job.Events] streams the
// run's progress events — replayed from the first event for every
// subscriber, in exactly the order a WithProgress callback sees them.
// Reports carry the job linkage and timing ([Report].JobID, Queued,
// Wall). The serving layer (package modis/serve and the modisd
// daemon) builds on Submit: a scheduler pools engines per workload,
// queues admissions ([WithAdmission]), and runs every job's exact
// inferences on the workload's queue in one node-wide worker pool
// ([WithExactRunner]) — which changes who executes them, never the
// results.
//
// Valuation — the search bottleneck — parallelizes two ways. Within a
// run, [WithParallelism] fans the exact model inferences of each
// frontier expansion across a worker pool; batches are planned and
// committed in deterministic child order, so every parallelism degree
// produces the same skyline and report as the sequential run. Across
// runs, one engine serves concurrent Run calls against the shared
// memoized test set, which single-flights duplicate valuations even
// between runs in flight. Both require the configuration's Model to
// support concurrent Evaluate calls.
//
// # The columnar fast path
//
// Exact model inference normally receives a materialized child table
// (fst.Model's Evaluate). A model that additionally implements
// fst.RowsModel is valuated straight from the state's bitmap row view
// instead: the engine hands it the surviving universal-row indexes and
// the masked attributes, the universal table having been encoded into
// a columnar ml.Matrix once per space, so no child table is rebuilt
// and no dataset re-encoded per state. All built-in workload models
// (datagen tasks T1–T5 and custom workloads) implement it; results are
// bit-identical to the Evaluate path by construction and by property
// test.
//
// A custom model should implement RowsModel when its evaluation is
// derivable from (universal table, selected rows, masked attributes) —
// i.e. it trains and scores on the state's tuples, the dominant shape.
// Build an ml.TableEncoder over the space's universal table, obtain
// its Matrix once, and fit on Matrix.View(rows, masked) via the
// ml.Data fitting interfaces; return ok=false to fall back to Evaluate
// for states it cannot express. Models that depend on post-
// materialization UDF transforms need no change: spaces with UDFs
// disable the fast path automatically and every state takes the
// materialized reference path.
package modis

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/fst"
	"repro/internal/skyline"
)

// Engine runs discovery over one configuration. Construct with
// [NewEngine]; the zero value is unusable. An Engine is safe for
// concurrent use and runs execute concurrently: the memoized valuation
// record is sharded and single-flighted (two runs racing to valuate
// the same state share one model inference), estimator access is
// serialized internally, and every run carries its own valuation
// counters. Concurrent runs — and runs tuned with [WithParallelism] —
// require the configuration's Model to support concurrent Evaluate
// calls.
type Engine struct {
	cfg *fst.Config
	err error
}

// NewEngine wraps a validated configuration. A nil or inconsistent
// configuration is reported by the first Run call, keeping the
// constructor chainable: modis.NewEngine(cfg).Run(ctx, "bi").
func NewEngine(cfg *fst.Config) *Engine {
	e := &Engine{cfg: cfg}
	if cfg == nil {
		e.err = errors.New("modis: NewEngine: nil configuration")
		return e
	}
	if err := cfg.Validate(); err != nil {
		e.err = err
	}
	return e
}

// Run executes one discovery run synchronously: the named algorithm
// (see [Algorithms]) over the engine's configuration, tuned by the
// given options. Option and algorithm errors are reported before the
// search starts. The context is honored at frontier-pop granularity;
// on cancellation or deadline expiry Run returns (nil, ctx.Err()).
//
// Run is a thin wrapper over the asynchronous job API — [Engine.Submit]
// followed by [Job.Result] — so a Run and a submitted job execute
// identically. Runs may execute concurrently on one engine: each run
// carries its own valuation counters and history (the Report always
// describes this run alone) while the memoized valuation record is
// shared — across sequential runs and in flight between concurrent
// ones.
func (e *Engine) Run(ctx context.Context, algorithm string, opts ...Option) (*Report, error) {
	j, err := e.Submit(ctx, algorithm, opts...)
	if err != nil {
		return nil, err
	}
	return j.Result()
}

// prepared is a validated run: everything Submit resolves before the
// job goroutine starts, so every option and algorithm error surfaces
// synchronously.
type prepared struct {
	fn        algorithm
	canonical string
	resolved  RunOptions
	copts     core.Options
	admit     func(context.Context) error
}

// prepare resolves the algorithm and options of one run request.
func (e *Engine) prepare(algorithm string, opts []Option) (prepared, error) {
	fn, canonical, err := lookup(algorithm)
	if err != nil {
		return prepared{}, err
	}
	s := settings{Options: core.DefaultOptions(len(e.cfg.Measures)), parallelism: 1}
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(&s); err != nil {
			return prepared{}, err
		}
	}
	resolved, err := s.resolve(len(e.cfg.Measures))
	if err != nil {
		return prepared{}, err
	}
	return prepared{
		fn:        fn,
		canonical: canonical,
		resolved:  resolved,
		copts:     s.Options,
		admit:     s.admit,
	}, nil
}

// Submit starts one discovery run asynchronously and returns its [Job]
// handle immediately. Algorithm and option errors surface here, before
// any goroutine starts; everything after — admission (see
// [WithAdmission]), the search itself, progress events — happens on
// the job's goroutine and is observed through the handle. The given
// context governs the whole job: cancelling it (or [Job.Cancel], or a
// deadline) aborts the search, and the job finishes with ctx.Err().
func (e *Engine) Submit(ctx context.Context, algorithm string, opts ...Option) (*Job, error) {
	if e.err != nil {
		return nil, e.err
	}
	pr, err := e.prepare(algorithm, opts)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	jctx, cancel := context.WithCancel(ctx)
	j := newJob(pr.canonical)
	j.cancel = cancel
	// Progress events tee into the job's replayable stream; a caller's
	// WithProgress hook keeps firing synchronously on the search
	// goroutine exactly as before.
	user := pr.copts.Progress
	pr.copts.Progress = func(ev Event) {
		if user != nil {
			user(ev)
		}
		j.record(ev)
	}
	go func() {
		defer cancel()
		rep, err := e.execute(jctx, j, pr)
		j.finish(rep, err)
	}()
	return j, nil
}

// execute runs a prepared job: admission, the search, and report
// assembly.
func (e *Engine) execute(ctx context.Context, j *Job, pr prepared) (*Report, error) {
	if pr.admit != nil {
		if err := pr.admit(ctx); err != nil {
			return nil, err
		}
	}
	j.started.Store(true)
	queued := time.Since(j.submitted)

	start := time.Now()
	res, err := pr.fn(ctx, e.cfg, pr.copts)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		JobID:      j.id,
		Algorithm:  pr.canonical,
		Options:    pr.resolved,
		Queued:     queued,
		Wall:       time.Since(start),
		Valuated:   res.Stats.Valuated,
		ExactCalls: res.Stats.ExactCalls,
		Levels:     res.Stats.Levels,
		Pruned:     res.Stats.Pruned,
		Skyline:    make([]*Candidate, 0, len(res.Skyline)),
		Graph:      res.Graph,
	}
	for _, c := range res.Skyline {
		rep.Skyline = append(rep.Skyline, &Candidate{
			Bits:   c.Bits,
			Bitmap: c.Bits.Words(),
			Ones:   c.Bits.Ones(),
			Perf:   c.Perf,
		})
	}
	return rep, nil
}

// Candidate is one member of a discovered ε-skyline set.
type Candidate struct {
	// Bits is the state bitmap; materialize the dataset with
	// Space.Materialize(Bits).
	Bits fst.Bitmap `json:"-"`
	// Bitmap is the packed-word snapshot of Bits (bit i of the state is
	// bit i%64 of word i/64), the serializable view.
	Bitmap []uint64 `json:"bitmap"`
	// Ones is the number of set entries (the state's |D| proxy).
	Ones int `json:"ones"`
	// Perf is the normalized performance vector (smaller is better).
	Perf []float64 `json:"perf"`
}

// Report is the JSON-serializable result of one discovery run.
type Report struct {
	// JobID identifies the run's job (see [Engine.Submit]); reports
	// fetched from a daemon carry the same id the submit returned.
	JobID string `json:"job_id,omitempty"`
	// Algorithm is the canonical algorithm key that ran.
	Algorithm string `json:"algorithm"`
	// Options are the knobs the run executed with: the defaults (see
	// the package doc) overridden by the run's options, parallelism 0
	// resolved to the CPU count.
	Options RunOptions `json:"options"`
	// Queued is how long the job waited between submission and the
	// search starting — admission-queue time under a scheduler,
	// scheduling noise otherwise (marshals as nanoseconds).
	Queued time.Duration `json:"queue_ns"`
	// Wall is the end-to-end search time (marshals as nanoseconds).
	Wall time.Duration `json:"wall_ns"`
	// Valuated counts the states valuated by this run.
	Valuated int `json:"valuated"`
	// ExactCalls counts valuations that ran real model inference.
	ExactCalls int `json:"exact_calls"`
	// Levels is the deepest operator-path length reached.
	Levels int `json:"levels"`
	// Pruned counts states skipped by correlation-based pruning.
	Pruned int `json:"pruned"`
	// Skyline is the discovered ε-skyline set.
	Skyline []*Candidate `json:"skyline"`
	// Graph is the recorded running graph G_T (nil unless
	// [WithRecordGraph] was given).
	Graph *fst.RunningGraph `json:"-"`
}

// RunOptions are the resolved tuning knobs a run executed with.
type RunOptions struct {
	Budget   int     `json:"budget"`
	Epsilon  float64 `json:"epsilon"`
	MaxLevel int     `json:"max_level"`
	Decisive int     `json:"decisive"`
	Theta    float64 `json:"theta"`
	K        int     `json:"k"`
	Alpha    float64 `json:"alpha"`
	Seed     int64   `json:"seed"`
	// Parallelism is the resolved valuation worker count ([WithParallelism];
	// 0 resolves to the CPU count). It affects wall time only, never results.
	Parallelism int `json:"parallelism"`
}

// Best returns the candidate minimizing the given measure index, or
// nil for an empty skyline.
func (r *Report) Best(measure int) *Candidate {
	var best *Candidate
	for _, c := range r.Skyline {
		if measure >= len(c.Perf) {
			continue
		}
		if best == nil || c.Perf[measure] < best.Perf[measure] {
			best = c
		}
	}
	return best
}

// Vectors extracts the skyline's performance vectors.
func (r *Report) Vectors() [][]float64 {
	out := make([][]float64, len(r.Skyline))
	for i, c := range r.Skyline {
		out[i] = c.Perf
	}
	return out
}

// Diversity is the paper's Div score (Equation 2) of a candidate set:
// the sum of pairwise dis(·,·) distances under content/performance
// balance alpha, with eucMax normalizing the performance term.
func Diversity(set []*Candidate, alpha, eucMax float64) float64 {
	cs := make([]*core.Candidate, len(set))
	for i, c := range set {
		cs[i] = &core.Candidate{Bits: c.Bits, Perf: skyline.Vector(c.Perf)}
	}
	return core.Div(cs, alpha, eucMax)
}
