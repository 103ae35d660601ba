package modis

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/core"
	"repro/internal/fst"
	"repro/internal/workpool"
)

// Option tunes one discovery run. Options validate eagerly: an
// out-of-range value is reported by [Engine.Run] before the search
// starts, instead of being silently replaced by a default.
type Option func(*settings) error

// Event is a streaming snapshot of a running search, delivered through
// [WithProgress]: one event whenever the search reaches a deeper
// level, and a final event (Done=true) when the run terminates. The
// callback runs synchronously on the search goroutine — keep it cheap.
// Its fields and JSON names are Algorithm ("algorithm", the canonical
// key), Level ("level"), Frontier ("frontier", states queued; in the
// final event, those left unexpanded), Valuated ("valuated"),
// SkylineSize ("skyline_size", in the final event the report's
// skyline size) and Done ("done").
type Event = core.ProgressEvent

// settings are the run's knobs in their one resolved form — seeded from
// core.DefaultOptions and overwritten by each applied option — plus
// the two knobs that are not the search's: the admission hook and the
// valuation worker count (default 1), which resolve turns into an
// exact runner.
type settings struct {
	core.Options
	admit       func(context.Context) error
	parallelism int
}

// resolve range-checks the decisive index against the configuration's
// measures, resolves parallelism 0 to the CPU count, gives a run with
// parallelism above 1 and no installed runner a queue of the
// process-global pool as its runner, and reports the knobs the run
// executes with.
func (s *settings) resolve(numMeasures int) (RunOptions, error) {
	if s.Decisive >= numMeasures {
		return RunOptions{}, fmt.Errorf(
			"modis: WithDecisive(%d): index out of range for %d measures", s.Decisive, numMeasures)
	}
	if s.parallelism == 0 {
		s.parallelism = runtime.GOMAXPROCS(0)
	}
	if s.parallelism > 1 && s.ExactRunner == nil {
		s.ExactRunner = workpool.Global().NewQueue("modis", s.parallelism)
	}
	return RunOptions{
		Budget:      s.N,
		Epsilon:     s.Eps,
		MaxLevel:    s.MaxLevel,
		Decisive:    s.Decisive,
		Theta:       s.Theta,
		K:           s.K,
		Alpha:       s.Alpha,
		Seed:        s.Seed,
		Parallelism: s.parallelism,
	}, nil
}

// WithBudget bounds the run at n valuations (the paper's N). 0 means
// unbounded.
func WithBudget(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("modis: WithBudget(%d): budget must be >= 0 (0 = unbounded)", n)
		}
		s.N = n
		return nil
	}
}

// WithEpsilon sets the ε of ε-dominance (default 0.1). Must be > 0.
func WithEpsilon(eps float64) Option {
	return func(s *settings) error {
		if !(eps > 0) || math.IsInf(eps, 1) {
			return fmt.Errorf("modis: WithEpsilon(%v): epsilon must be a finite value > 0", eps)
		}
		s.Eps = eps
		return nil
	}
}

// WithMaxLevel bounds the operator path length (the paper's maxl). 0
// means the full space.
func WithMaxLevel(l int) Option {
	return func(s *settings) error {
		if l < 0 {
			return fmt.Errorf("modis: WithMaxLevel(%d): level must be >= 0 (0 = unbounded)", l)
		}
		s.MaxLevel = l
		return nil
	}
}

// WithDecisive selects the decisive measure p_d by index: the measure
// the ε-grid compares instead of discretizing. Defaults to the last
// measure. The index is range-checked against the engine's measures
// when the run starts.
func WithDecisive(i int) Option {
	return func(s *settings) error {
		if i < 0 {
			return fmt.Errorf("modis: WithDecisive(%d): index must be >= 0", i)
		}
		s.Decisive = i
		return nil
	}
}

// WithTheta sets the Spearman threshold θ of the correlation graph
// used by "bi" pruning (default 0.8). Must be in (0, 1].
func WithTheta(theta float64) Option {
	return func(s *settings) error {
		if !(theta > 0) || theta > 1 {
			return fmt.Errorf("modis: WithTheta(%v): threshold must be in (0, 1]", theta)
		}
		s.Theta = theta
		return nil
	}
}

// WithK sets the diversified skyline size for "div" (default 5). Must
// be >= 1.
func WithK(k int) Option {
	return func(s *settings) error {
		if k < 1 {
			return fmt.Errorf("modis: WithK(%d): size must be >= 1", k)
		}
		s.K = k
		return nil
	}
}

// WithAlpha balances content diversity against performance diversity
// in "div" (default 0.5); α = 0 is pure performance diversity. Must be
// in [0, 1].
func WithAlpha(alpha float64) Option {
	return func(s *settings) error {
		if math.IsNaN(alpha) || alpha < 0 || alpha > 1 {
			return fmt.Errorf("modis: WithAlpha(%v): balance must be in [0, 1]", alpha)
		}
		s.Alpha = alpha
		return nil
	}
}

// WithSeed drives the diversification initialization of "div".
func WithSeed(seed int64) Option {
	return func(s *settings) error {
		s.Seed = seed
		return nil
	}
}

// WithParallelism sets the valuation worker count of the run: the
// exact model inferences of each frontier expansion's children run on
// a queue of the process-global pool (workpool.Global) that may occupy
// at most n workers at once. n = 0 uses all CPUs (runtime.GOMAXPROCS);
// n = 1 (the default) runs them inline on the run goroutine. An
// installed [WithExactRunner] takes precedence. Any degree produces the
// identical skyline and report — batches are planned and committed in
// deterministic child order — so parallelism is purely a wall-clock
// knob. The configuration's Model must support concurrent Evaluate
// calls when n != 1.
func WithParallelism(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("modis: WithParallelism(%d): worker count must be >= 0 (0 = all CPUs)", n)
		}
		s.parallelism = n
		return nil
	}
}

// WithExactRunner installs the run's exact-inference runner: each
// valuation window's exact model inferences are handed to r as a batch
// of tasks, whatever [WithParallelism] says. modis/serve's Scheduler
// uses it to run every job's inferences on the workload's queue in the
// node's shared pool. Results are byte-identical with any compliant
// runner (see fst.ExactRunner for the contract). Most callers never
// need this option.
func WithExactRunner(r fst.ExactRunner) Option {
	return func(s *settings) error {
		s.ExactRunner = r
		return nil
	}
}

// WithAdmission gates the start of a submitted job: the job goroutine
// calls fn before the search begins and aborts the job with fn's error
// if it fails. Schedulers use it to bound concurrent searches — the
// time spent inside fn is the report's Queued field. The context is
// the job's; fn must honor its cancellation. Most callers never need
// this option.
func WithAdmission(fn func(ctx context.Context) error) Option {
	return func(s *settings) error {
		s.admit = fn
		return nil
	}
}

// WithRecordGraph captures the running graph G_T in the report — every
// valuated state and each transition with its direction — for analysis
// and the MOSP reduction. Every algorithm records it.
func WithRecordGraph() Option {
	return func(s *settings) error {
		s.RecordGraph = true
		return nil
	}
}

// WithProgress streams per-level search snapshots to fn while the run
// executes. A nil fn disables streaming.
func WithProgress(fn func(Event)) Option {
	return func(s *settings) error {
		s.Progress = fn
		return nil
	}
}
