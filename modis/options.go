package modis

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/core"
	"repro/internal/fst"
)

// Option tunes one discovery run. Options validate eagerly: an
// out-of-range value is reported by [Engine.Run] before the search
// starts, instead of being silently replaced by a default.
type Option func(*settings) error

// Event is a streaming snapshot of a running search, delivered through
// [WithProgress]: one event whenever the search reaches a deeper
// level, and a final event (Done=true) when the run terminates. The
// callback runs synchronously on the search goroutine — keep it cheap.
type Event struct {
	// Algorithm is the canonical key of the emitting algorithm.
	Algorithm string `json:"algorithm"`
	// Level is the deepest operator-path length reached so far.
	Level int `json:"level"`
	// Frontier is the number of states currently queued; in the final
	// event, those left unexpanded.
	Frontier int `json:"frontier"`
	// Valuated is the number of valuations used so far.
	Valuated int `json:"valuated"`
	// SkylineSize is the incumbent ε-skyline set size; in the final
	// event, the size of the report's skyline.
	SkylineSize int `json:"skyline_size"`
	// Done marks the final event of a run.
	Done bool `json:"done"`
}

// settings accumulates applied options; the zero-value ambiguity of
// internal/core's Options struct (and its sentinel constants) stops
// here: every knob has an explicit default and explicit range checks.
type settings struct {
	budget      int
	eps         float64
	maxLevel    int
	decisive    int
	decisiveSet bool
	theta       float64
	prune       bool
	k           int
	alpha       float64
	seed        int64
	parallelism int
	recordGraph bool
	progress    func(Event)
	runner      fst.ExactRunner
	admit       func(context.Context) error
}

func defaultSettings() settings {
	return settings{
		eps:         0.1,
		theta:       0.8,
		prune:       true,
		k:           5,
		alpha:       0.5,
		parallelism: 1,
	}
}

// resolve range-checks the knobs that need the configuration (the
// decisive measure index) and maps the settings onto internal/core's
// sentinel-encoded Options.
func (s settings) resolve(numMeasures int) (RunOptions, core.Options, error) {
	decisive := numMeasures - 1
	if s.decisiveSet {
		if s.decisive >= numMeasures {
			return RunOptions{}, core.Options{}, fmt.Errorf(
				"modis: WithDecisive(%d): index out of range for %d measures", s.decisive, numMeasures)
		}
		decisive = s.decisive
	}
	par := s.parallelism
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	ro := RunOptions{
		Budget:      s.budget,
		Epsilon:     s.eps,
		MaxLevel:    s.maxLevel,
		Decisive:    decisive,
		Theta:       s.theta,
		Prune:       s.prune,
		K:           s.k,
		Alpha:       s.alpha,
		Seed:        s.seed,
		Parallelism: par,
	}
	co := core.Options{
		N:            s.budget,
		Eps:          s.eps,
		MaxLevel:     s.maxLevel,
		Theta:        s.theta,
		DisablePrune: !s.prune,
		K:            s.k,
		Seed:         s.seed,
		Parallelism:  par,
		RecordGraph:  s.recordGraph,
	}
	// Resolved values cross into core's sentinel encoding here, so the
	// zero-value collisions never reach callers.
	if decisive == 0 {
		co.Decisive = core.DecisiveFirst
	} else {
		co.Decisive = decisive
	}
	if s.alpha == 0 {
		co.Alpha = core.AlphaZero
	} else {
		co.Alpha = s.alpha
	}
	if p := s.progress; p != nil {
		co.Progress = func(ev core.ProgressEvent) { p(Event(ev)) }
	}
	co.ExactRunner = s.runner
	return ro, co, nil
}

// WithBudget bounds the run at n valuations (the paper's N). 0 means
// unbounded.
func WithBudget(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("modis: WithBudget(%d): budget must be >= 0 (0 = unbounded)", n)
		}
		s.budget = n
		return nil
	}
}

// WithEpsilon sets the ε of ε-dominance (default 0.1). Must be > 0.
func WithEpsilon(eps float64) Option {
	return func(s *settings) error {
		if !(eps > 0) || math.IsInf(eps, 1) {
			return fmt.Errorf("modis: WithEpsilon(%v): epsilon must be a finite value > 0", eps)
		}
		s.eps = eps
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
		s.maxLevel = l
		return nil
	}
}

// WithDecisive selects the decisive measure p_d by index — including
// index 0, which the internal options struct can only express through
// a sentinel. Defaults to the last measure. The index is range-checked
// against the engine's measures when the run starts.
func WithDecisive(i int) Option {
	return func(s *settings) error {
		if i < 0 {
			return fmt.Errorf("modis: WithDecisive(%d): index must be >= 0", i)
		}
		s.decisive = i
		s.decisiveSet = true
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
		s.theta = theta
		return nil
	}
}

// WithoutPruning disables correlation-based pruning (the "nobi"
// ablation, applicable to "bi").
func WithoutPruning() Option {
	return func(s *settings) error {
		s.prune = false
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
		s.k = k
		return nil
	}
}

// WithAlpha balances content diversity against performance diversity
// in "div" (default 0.5) — including α = 0, pure performance
// diversity, which the internal options struct can only express
// through a sentinel. Must be in [0, 1].
func WithAlpha(alpha float64) Option {
	return func(s *settings) error {
		if math.IsNaN(alpha) || alpha < 0 || alpha > 1 {
			return fmt.Errorf("modis: WithAlpha(%v): balance must be in [0, 1]", alpha)
		}
		s.alpha = alpha
		return nil
	}
}

// WithSeed drives the diversification initialization of "div".
func WithSeed(seed int64) Option {
	return func(s *settings) error {
		s.seed = seed
		return nil
	}
}

// WithParallelism sets the valuation worker count of the run: the
// exact model inferences of each frontier expansion's children fan out
// across n goroutines. n = 0 uses all CPUs (runtime.GOMAXPROCS); n = 1
// (the default) runs sequentially. Any degree produces the identical
// skyline and report — batches are planned and committed in
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
// of tasks instead of the run's built-in worker pool. This is the
// serving layer's frontier-alignment hook — modis/serve's Scheduler
// installs a per-run handle whose RunExact may merge the window with
// windows of concurrent runs over the same configuration into one
// pooled pass. Results are byte-identical with any compliant runner
// (see fst.ExactRunner for the contract). If the runner additionally
// implements Batched() bool, the report's Batched field records
// whether the run actually shared a pass. Most callers never need
// this option.
func WithExactRunner(r fst.ExactRunner) Option {
	return func(s *settings) error {
		s.runner = r
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
		s.recordGraph = true
		return nil
	}
}

// WithProgress streams per-level search snapshots to fn while the run
// executes. A nil fn disables streaming.
func WithProgress(fn func(Event)) Option {
	return func(s *settings) error {
		s.progress = fn
		return nil
	}
}
