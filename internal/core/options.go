// Package core implements the MODis skyline data generation algorithms:
// ApxMODis (Algorithm 1, reduce-from-universal), BiMODis (Algorithm 2,
// bi-directional search with correlation-based pruning), NOBiMODis
// (BiMODis without pruning), DivMODis (Algorithm 3, level-wise
// diversification), and the exhaustive ExactMODis. All five run one
// frontier search (search.go) and differ only in its spec.
package core

import (
	"time"

	"repro/internal/fst"
	"repro/internal/skyline"
)

// Sentinel option values. The zero value of an Options field means
// "unset, use the default", so intents that collide with the zero value
// need explicit sentinels.
const (
	// DecisiveFirst selects measure index 0 as the decisive measure p_d.
	// Decisive's zero value defaults to the last measure, so index 0 is
	// requested through this sentinel.
	DecisiveFirst = -2
	// AlphaZero requests α = 0 in dis(·,·) — pure performance diversity,
	// no content term. Alpha's zero value defaults to 0.5, so α = 0 is
	// requested through this sentinel.
	AlphaZero = -1.0
)

// Options are the shared tuning knobs of the MODis algorithms.
type Options struct {
	// N is the valuation budget (the paper's N). 0 means unbounded.
	N int
	// Eps is the ε of ε-dominance; must be > 0. Default 0.1.
	Eps float64
	// MaxLevel is the maximum path length maxl. 0 means the full space.
	MaxLevel int
	// Decisive is the index of the decisive measure p_d. The zero value
	// (and any out-of-range index) selects the last measure, the paper's
	// default; use DecisiveFirst to select measure 0.
	Decisive int
	// Theta is the Spearman threshold θ of the correlation graph G_C
	// (BiMODis). Default 0.8.
	Theta float64
	// DisablePrune turns correlation-based pruning off (NOBiMODis).
	DisablePrune bool
	// K is the diversified skyline size (DivMODis). Default 5.
	K int
	// Alpha balances content diversity (bitmap cosine) against
	// performance diversity (vector euclidean) in dis(·,·). Default 0.5;
	// use AlphaZero for pure performance diversity.
	Alpha float64
	// Seed drives the diversification initialization.
	Seed int64
	// Parallelism is the valuation worker count: exact model inferences
	// of independent frontier children fan out across this many
	// goroutines. Values <= 1 run sequentially. Any degree produces the
	// same skylines and reports — batches are planned and committed in
	// deterministic child order — but the model must support concurrent
	// Evaluate calls when parallelism > 1.
	Parallelism int
	// ExactRunner, when non-nil, executes each valuation window's exact
	// model inferences in place of the run's built-in worker pool — the
	// entry point the serving layer (modis/serve) uses to run every
	// job's inferences on its shard's queue in one node-wide pool.
	// Results are unchanged by construction: planning and commits stay
	// on the run goroutine in child order, whoever executes the
	// inferences.
	ExactRunner fst.ExactRunner
	// RecordGraph captures the running graph G_T (nodes and transition
	// edges) in the result, for analysis and the MOSP reduction.
	RecordGraph bool
	// Progress, when non-nil, receives streaming snapshots of the running
	// search: one event whenever the search reaches a deeper level and a
	// final event (Done=true) when the run terminates. The callback runs
	// synchronously on the search goroutine — keep it cheap.
	Progress func(ProgressEvent)
}

// ProgressEvent is a streaming snapshot of a running search, delivered
// through Options.Progress.
type ProgressEvent struct {
	// Algorithm is the emitting algorithm ("apx", "bi", "nobi", "div",
	// "exact").
	Algorithm string
	// Level is the deepest operator-path length reached so far.
	Level int
	// Frontier is the number of states currently queued across all
	// frontiers; in the final event, those left unexpanded.
	Frontier int
	// Valuated is the number of valuations used so far.
	Valuated int
	// SkylineSize is the size of the incumbent ε-skyline set; in the
	// final event, the size of the returned skyline.
	SkylineSize int
	// Done marks the final event of a run.
	Done bool
}

// emit delivers a progress snapshot if a hook is installed.
func (o *Options) emit(algo string, level, frontier, valuated, skyline int, done bool) {
	if o.Progress == nil {
		return
	}
	o.Progress(ProgressEvent{
		Algorithm:   algo,
		Level:       level,
		Frontier:    frontier,
		Valuated:    valuated,
		SkylineSize: skyline,
		Done:        done,
	})
}

func (o Options) withDefaults() Options {
	if o.Eps <= 0 {
		o.Eps = 0.1
	}
	if o.Theta <= 0 {
		o.Theta = 0.8
	}
	if o.K <= 0 {
		o.K = 5
	}
	if o.Alpha == AlphaZero {
		o.Alpha = 0
	} else if o.Alpha <= 0 {
		o.Alpha = 0.5
	}
	return o
}

func (o Options) decisiveIdx(numMeasures int) int {
	if o.Decisive == DecisiveFirst {
		return 0
	}
	// Zero means unset: default to the last measure, as do out-of-range
	// indexes.
	if o.Decisive > 0 && o.Decisive < numMeasures {
		return o.Decisive
	}
	return numMeasures - 1
}

// Candidate is one member of the output skyline set D_F: a state bitmap
// and its valuated performance vector.
type Candidate struct {
	Bits fst.Bitmap
	Perf skyline.Vector
}

// Clone deep-copies the candidate.
func (c *Candidate) Clone() *Candidate {
	return &Candidate{Bits: c.Bits.Clone(), Perf: c.Perf.Clone()}
}

// RunStats summarizes a discovery run for efficiency experiments.
type RunStats struct {
	Valuated   int
	ExactCalls int
	Levels     int
	Pruned     int
	Elapsed    time.Duration
}

// Result is the output of a MODis run: the ε-skyline set and run stats.
type Result struct {
	Skyline []*Candidate
	Stats   RunStats
	// Graph is the recorded running graph G_T (nil unless
	// Options.RecordGraph was set).
	Graph *fst.RunningGraph
}

// Best returns the candidate minimizing the given measure index, or nil
// for an empty skyline.
func (r *Result) Best(measure int) *Candidate {
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

// Vectors extracts the performance vectors of the skyline set.
func (r *Result) Vectors() []skyline.Vector {
	out := make([]skyline.Vector, len(r.Skyline))
	for i, c := range r.Skyline {
		out[i] = c.Perf
	}
	return out
}
