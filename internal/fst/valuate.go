package fst

import (
	"context"
	"sync/atomic"

	"repro/internal/skyline"
	"repro/internal/workpool"
)

// ValuationStats are the per-run valuation counters (the paper's N
// budget accounting). They live with the run rather than the Config so
// one configuration can serve concurrent runs; the counters are atomic
// so progress hooks may read them while workers are in flight.
type ValuationStats struct {
	valuations atomic.Int64
	exactCalls atomic.Int64
}

// Valuations reports the number of states valuated so far (memo hits
// are free and do not count).
func (s *ValuationStats) Valuations() int { return int(s.valuations.Load()) }

// ExactCalls reports how many valuations ran real model inference.
func (s *ValuationStats) ExactCalls() int { return int(s.exactCalls.Load()) }

// Valuator drives the valuations of one search run: it owns the run's
// ValuationStats and fans exact model inferences of independent
// sibling states across up to parallelism workers of the
// process-global inference pool.
//
// Results are deterministic in the parallelism degree: each window is
// planned sequentially in child order (memo lookups, budget slots,
// surrogate decisions against the estimator as trained before the
// window), only the exact model inferences — the expensive part — run
// on the pool, and every side effect (test-set order, estimator
// observations, exact-call counts, the children's Perf vectors) is
// committed sequentially in child order afterwards. The progressive
// window schedule (see MaxWindow) is a constant, so a run with
// parallelism n produces byte-identical skylines and reports to the
// same run with parallelism 1.
type Valuator struct {
	cfg    *Config
	par    int
	runner ExactRunner
	queue  *workpool.Queue // lane into the process-global pool (par > 1, no runner)

	// Stats are this run's counters; read them for budgets and reports.
	Stats *ValuationStats

	jobs  []valJob
	exact []int
	tasks []func()
}

// ExactRunner executes the exact-inference tasks of one valuation
// window on behalf of a Valuator — the serving layer's hook into
// execution. A scheduler installs a runner on each run
// (SetExactRunner) that sends the window's tasks to the shard's queue
// in its own worker pool. Concurrent runs over one configuration need
// nothing more from the runner to share work: a state two runs need at
// once is inferred once through the test set's single-flight.
//
// The contract is simple: RunExact must call every task exactly once,
// in any order and on any goroutines, return only when all calls have
// completed, and not retain the task slice afterwards (the valuator
// reuses it across windows). Each task is self-contained (it carries its run's
// context and writes only its own job slot), so any compliant runner —
// sequential or pooled — leaves the run's results byte-identical:
// planning and committing stay in child order on the run's own
// goroutine.
type ExactRunner interface {
	RunExact(ctx context.Context, tasks []func())
}

// SetExactRunner installs the run's exact-inference runner, replacing
// the built-in execution path for every subsequent window. A nil
// runner restores the built-in path (inline for parallelism <= 1, the
// process-global pool otherwise).
func (v *Valuator) SetExactRunner(r ExactRunner) { v.runner = r }

// NewValuator returns a valuator for one run of this configuration.
// parallelism is the exact-inference worker count; values below 2 mean
// sequential. The model must support concurrent Evaluate calls when
// parallelism > 1.
func (c *Config) NewValuator(parallelism int) *Valuator {
	if parallelism < 1 {
		parallelism = 1
	}
	return &Valuator{cfg: c, par: parallelism, Stats: &ValuationStats{}}
}

// Valuate valuates a single state bitmap against this run's counters —
// the start-state path; frontiers of children go through ValuateWindow.
// It is the single-state window, so the policy (memo adoption, warmup
// gate, ExactEvery, canonical-memo commit) and the cancellation
// behavior are exactly the batch ones — root valuations are often the
// largest inferences of a run, so they too honor ctx.
func (v *Valuator) Valuate(ctx context.Context, bits Bitmap) (skyline.Vector, error) {
	s := &State{Bits: bits}
	if _, err := v.ValuateWindow(ctx, []*State{s}, 0); err != nil {
		return nil, err
	}
	return s.Perf, nil
}

// valJob is one planned valuation of a batch.
type valJob struct {
	state    *State
	key      StateKey
	feats    []float64
	perf     skyline.Vector // surrogate answer (exact == false)
	exact    bool
	test     *Test // exact result (owned or single-flighted from a peer)
	computed bool
	err      error
}

// MaxWindow caps the progressive valuation window: batches are
// planned, executed, and committed in windows that start at one state
// and double up to this cap, so early results feed the next window's
// surrogate (and, in BiMODis, pruning) decisions with near-sequential
// freshness while wide expansions still saturate the worker pool. The
// schedule is a constant — never a function of the parallelism degree
// or the machine — which is what keeps results identical for every
// pool size; it also caps how many workers one window can keep busy.
const MaxWindow = 16

// GrowWindow advances the progressive window schedule: 1, 2, 4, 8,
// MaxWindow, MaxWindow, ... The search loop of internal/core slices
// each expansion's children with it and refreshes its own inputs (the
// skyline, BiMODis' prune history) between windows.
func GrowWindow(size int) int {
	size *= 2
	if size > MaxWindow {
		size = MaxWindow
	}
	return size
}

// ValuateWindow plans, executes, and commits one window as a unit: the
// surrogate consults the estimator as trained before the window, all
// exact inferences of the window fan out across the pool together, and
// side effects commit in child order. Memo hits are free; budget > 0
// caps this run's total valuations, cutting the window short exactly
// where a sequential search would stop. It returns how many leading
// states were processed; states[n:] are left untouched (and
// unvaluated). Cancellation drains the pool and surfaces ctx.Err();
// the side effects of states preceding the first error commit first —
// exactly those a sequential run would have committed before stopping
// at that state. The search drives it with GrowWindow-sized slices of
// each expansion's children, interleaving its own bookkeeping (skyline
// updates, pruning) between windows.
func (v *Valuator) ValuateWindow(ctx context.Context, states []*State, budget int) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	c := v.cfg
	jobs := v.jobs[:0]
	exact := v.exact[:0]
	exactStart := v.Stats.ExactCalls()

	// Plan sequentially in child order: assign budget slots and decide
	// memo/surrogate/exact per child. The warmup gate is evaluated
	// against the exact-call count at window start, so the decision does
	// not depend on which worker finishes first.
	n := 0
	for _, s := range states {
		if budget > 0 && v.Stats.Valuations() >= budget {
			break
		}
		n++
		key := s.Bits.Key()
		if t, ok := c.Tests.Get(key); ok {
			// Re-Put the canonical test: idempotent for anything already
			// in the valuation order, and it adopts orphans — tests
			// memoized by a run that was cancelled between computation
			// and commit — into the order at a deterministic point.
			s.Perf = c.Tests.Put(t).Perf
			continue
		}
		cnt := v.Stats.valuations.Add(1)
		feats := s.Bits.Floats()
		j := valJob{state: s, key: key, feats: feats}
		useSurrogate := c.Est != nil && exactStart >= c.WarmupExact
		if useSurrogate && c.ExactEvery > 0 && int(cnt)%c.ExactEvery == 0 {
			useSurrogate = false
		}
		if useSurrogate {
			// Planning runs on the run's own goroutine, never on a pool
			// worker: a surrogate refit blocks on workers of the
			// process-global pool, and a nested Run from one of them
			// could deadlock.
			if p, ok := c.estimate(feats); ok {
				j.perf = clampVec(p)
			} else {
				j.exact = true
			}
		} else {
			j.exact = true
		}
		if j.exact {
			exact = append(exact, len(jobs))
		}
		jobs = append(jobs, j)
	}
	v.jobs, v.exact = jobs, exact

	// Fan the exact inferences out across the pool.
	v.runExact(ctx, jobs, exact)

	// Commit in child order: Perf vectors, test-set order, exact-call
	// counts and estimator observations — identical for any pool size.
	for i := range jobs {
		j := &jobs[i]
		if !j.exact {
			// Adopt the canonical memo entry as the state's vector: if a
			// concurrent run exact-computed this state first, its result
			// wins everywhere — the run's report then matches what the
			// shared memo will serve forever after. With no contention
			// the canonical test is ours and nothing changes.
			j.state.Perf = c.Tests.Put(&Test{Key: j.key, Perf: j.perf, Features: j.feats}).Perf
			continue
		}
		if j.err != nil {
			return n, j.err
		}
		j.state.Perf = j.test.Perf
		if j.computed {
			v.Stats.exactCalls.Add(1)
			c.observe(j.feats, j.test.Perf)
		}
		// Put regardless of who computed it: registers our own result in
		// the valuation order, and adopts single-flighted results whose
		// owning run was cancelled before its commit.
		c.Tests.Put(j.test)
	}
	return n, nil
}

// runExact executes the exact jobs: inline on the calling goroutine
// when par <= 1, otherwise through the process-global worker pool
// (workpool.Global) on a per-run queue whose share limit is par — so
// the total inference concurrency of the process stays bounded by one
// fixed worker set however many runs are in flight. An installed
// ExactRunner replaces both paths: the window's tasks are handed over
// as one batch so a scheduler can route them into its own pool. Tasks
// observe ctx: once cancelled, remaining jobs are marked with ctx.Err()
// and the window drains quickly.
func (v *Valuator) runExact(ctx context.Context, jobs []valJob, exact []int) {
	if len(exact) == 0 {
		return
	}
	run := func(j *valJob) {
		if err := ctx.Err(); err != nil {
			j.err = err
			return
		}
		t, computed, err := v.cfg.Tests.GetOrCompute(ctx, j.key, func() (*Test, error) {
			p, err := v.cfg.evaluateExact(j.state.Bits)
			if err != nil {
				return nil, err
			}
			return &Test{Key: j.key, Perf: p, Features: j.feats}, nil
		})
		if err != nil {
			j.err = err
			return
		}
		j.test, j.computed = t, computed
	}
	if v.runner != nil {
		tasks := v.tasks[:0]
		for _, i := range exact {
			j := &jobs[i]
			tasks = append(tasks, func() { run(j) })
		}
		v.tasks = tasks
		v.runner.RunExact(ctx, tasks)
		return
	}
	if v.par <= 1 || len(exact) == 1 {
		for _, i := range exact {
			run(&jobs[i])
		}
		return
	}
	if v.queue == nil {
		v.queue = workpool.Global().NewQueue("fst", v.par)
	}
	tasks := v.tasks[:0]
	for _, i := range exact {
		j := &jobs[i]
		tasks = append(tasks, func() { run(j) })
	}
	v.tasks = tasks
	v.queue.Run(tasks)
}
