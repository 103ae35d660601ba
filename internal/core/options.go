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

// Options are the shared tuning knobs of the MODis algorithms, in the
// one resolved form every algorithm reads as given: no field has a
// zero-value meaning beyond the one documented on it. Start from
// DefaultOptions and override what differs.
type Options struct {
	// N is the valuation budget (the paper's N). 0 means unbounded.
	N int
	// Eps is the ε of ε-dominance; must be > 0.
	Eps float64
	// MaxLevel is the maximum path length maxl. 0 means the full space.
	MaxLevel int
	// Decisive is the index of the decisive measure p_d, the one measure
	// the UPareto grid compares instead of discretizing; must index a
	// measure of the configuration.
	Decisive int
	// Theta is the Spearman threshold θ of the correlation graph G_C
	// (BiMODis).
	Theta float64
	// K is the diversified skyline size (DivMODis).
	K int
	// Alpha balances content diversity (bitmap cosine) against
	// performance diversity (vector euclidean) in dis(·,·); 0 is pure
	// performance diversity.
	Alpha float64
	// Seed drives the diversification initialization.
	Seed int64
	// ExactRunner, when non-nil, executes each valuation window's exact
	// model inferences; nil runs them inline on the search goroutine.
	// modis runs WithParallelism(n > 1) on a queue of the process-global
	// pool, and the serving layer (modis/serve) runs every job's
	// inferences on its shard's queue in one node-wide pool. Results are
	// unchanged by construction: planning and commits stay on the run
	// goroutine in child order, whoever executes the inferences. The
	// model must support concurrent Evaluate calls when the runner runs
	// tasks concurrently.
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

// DefaultOptions are the paper's default knobs for a configuration with
// numMeasures measures: ε 0.1, θ 0.8, k 5, α 0.5, the last measure
// decisive, unbounded budget and depth, inline valuation.
func DefaultOptions(numMeasures int) Options {
	return Options{
		Eps:      0.1,
		Decisive: numMeasures - 1,
		Theta:    0.8,
		K:        5,
		Alpha:    0.5,
	}
}

// ProgressEvent is a streaming snapshot of a running search, delivered
// through Options.Progress. Its JSON form is the wire form of progress
// events (modis/serve's SSE stream).
type ProgressEvent struct {
	// Algorithm is the emitting algorithm's registry key ("apx", "bi",
	// "nobi", "div", "exact", or a registered one).
	Algorithm string `json:"algorithm"`
	// Level is the deepest operator-path length reached so far.
	Level int `json:"level"`
	// Frontier is the number of states currently queued across all
	// frontiers; in the final event, those left unexpanded.
	Frontier int `json:"frontier"`
	// Valuated is the number of valuations used so far.
	Valuated int `json:"valuated"`
	// SkylineSize is the size of the incumbent ε-skyline set; in the
	// final event, the size of the returned skyline.
	SkylineSize int `json:"skyline_size"`
	// Done marks the final event of a run.
	Done bool `json:"done"`
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
