package fst

import (
	"context"
	"sync/atomic"

	"repro/internal/skyline"
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
// ValuationStats and history, and hands the exact model inferences of
// each window of independent sibling states to the run's ExactRunner.
//
// Results are deterministic in who runs the inferences: each window is
// planned sequentially in child order (memo lookups, budget slots,
// surrogate decisions against the estimator as trained before the
// window), only the exact model inferences — the expensive part — go
// to the runner, and every side effect (the run's history, estimator
// observations, exact-call counts, the children's Perf vectors) is
// committed sequentially in child order afterwards. The progressive
// window schedule (see MaxWindow) is a constant, so a run through a
// pooled runner produces byte-identical skylines and reports to the
// same run inline.
type Valuator struct {
	cfg    *Config
	runner ExactRunner

	// Stats are this run's counters; read them for budgets and reports.
	Stats *ValuationStats

	history []*Test
	seen    map[StateKey]bool

	jobs  []valJob
	exact []int
	tasks []func()
}

// ExactRunner executes the exact-inference tasks of one valuation
// window on behalf of a Valuator. A pool queue (workpool.Queue) is one:
// modis runs WithParallelism(n > 1) on a queue of the process-global
// pool, and a scheduler hands each run the queue of its shard in its
// own pool. Concurrent runs over one configuration need nothing more
// from the runner to share work: a state two runs need at once is
// inferred once through the test set's single-flight.
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

// NewValuator returns a valuator for one run of this configuration.
// Every window's exact inferences go to r; a nil r runs them inline on
// the calling goroutine. The model must support concurrent Evaluate
// calls when r runs tasks concurrently.
func (c *Config) NewValuator(r ExactRunner) *Valuator {
	return &Valuator{cfg: c, runner: r, Stats: &ValuationStats{}}
}

// History returns the tests this run has committed — memo hits,
// surrogate estimates and exact results alike — once each, in commit
// order: the run's own test set T, which BiMODis' correlation graph
// and prune ranges and DivMODis' normaliser read. The slice only grows
// between windows; callers must not modify it.
func (v *Valuator) History() []*Test { return v.history }

// commit records t in the run's history unless the run committed its
// state before.
func (v *Valuator) commit(t *Test) {
	if v.seen == nil {
		v.seen = map[StateKey]bool{}
	}
	if !v.seen[t.Key] {
		v.seen[t.Key] = true
		v.history = append(v.history, t)
	}
}

// Valuate valuates a single state bitmap against this run's counters —
// the start-state path; frontiers of children go through ValuateWindow.
// It is the single-state window, so the policy (memo hits, warmup
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
// freshness while wide expansions still saturate a pooled runner. The
// schedule is a constant — never a function of the runner or the
// machine — which is what keeps results identical for every pool size;
// it also caps how many workers one window can keep busy.
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
// exact inferences of the window go to the runner together, and
// side effects commit in child order, each state's test entering the
// run's history. Memo hits are free; budget > 0 caps this run's total
// valuations, cutting the window short exactly where a sequential
// search would stop. It returns how many leading states were
// processed; states[n:] are left untouched (and unvaluated).
// Cancellation drains the window and surfaces ctx.Err();
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
			s.Perf = t.Perf
			v.commit(t)
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

	// Hand the exact inferences to the runner.
	v.runExact(ctx, jobs, exact)

	// Commit in child order: Perf vectors, the run's history, exact-call
	// counts and estimator observations — identical for any runner.
	for i := range jobs {
		j := &jobs[i]
		if !j.exact {
			// Adopt the canonical memo entry as the state's vector: if a
			// concurrent run exact-computed this state first, its result
			// wins everywhere — the run's report then matches what the
			// shared memo will serve forever after. With no contention
			// the canonical test is ours and nothing changes.
			t := c.Tests.Put(&Test{Key: j.key, Perf: j.perf, Features: j.feats})
			j.state.Perf = t.Perf
			v.commit(t)
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
		v.commit(j.test)
	}
	return n, nil
}

// runExact executes the exact jobs: inline on the calling goroutine
// without a runner, otherwise handed to the runner as one batch per
// window. Tasks observe ctx: once cancelled, remaining jobs are marked
// with ctx.Err() and the window drains quickly.
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
	if v.runner == nil {
		for _, i := range exact {
			run(&jobs[i])
		}
		return
	}
	tasks := v.tasks[:0]
	for _, i := range exact {
		j := &jobs[i]
		tasks = append(tasks, func() { run(j) })
	}
	v.tasks = tasks
	v.runner.RunExact(ctx, tasks)
}
