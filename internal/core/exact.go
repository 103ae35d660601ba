package core

import (
	"context"

	"repro/internal/fst"
	"repro/internal/skyline"
)

// ExactMODis is the exact algorithm behind the fixed-parameter
// tractability of Theorem 1: it exhausts the runnings of the generator
// breadth-first (every reachable state up to MaxLevel, or at most N
// valuations), valuates each expansion's children in progressive
// windows through the run's Valuator (exact inferences on the worker
// pool, committed in child order so any parallelism reproduces the
// sequential result), and computes the exact skyline of the in-bounds
// states with Kung's algorithm. Exponential in the space size — use
// only on small spaces, e.g. to validate the (N, ε)-approximations in
// tests and ablations. The context is checked at frontier-pop and
// window granularity: cancellation or deadline expiry drains the pool
// and returns ctx.Err() with no partial result.
func ExactMODis(ctx context.Context, cfg *fst.Config, opts Options) (*Result, error) {
	return search(ctx, cfg, opts, spec{algo: "exact", exhaustive: true})
}

// exactSkyline filters the candidates to their exact Pareto set with
// Kung's algorithm (Theorem 1's multi-objective optimizer step).
func exactSkyline(all []*Candidate) []*Candidate {
	vs := make([]skyline.Vector, len(all))
	for i, c := range all {
		vs[i] = c.Perf
	}
	keep := skyline.KungSkyline(vs)
	out := make([]*Candidate, 0, len(keep))
	for _, i := range keep {
		out = append(out, all[i])
	}
	return out
}

// incumbentSkyline is the current exact-skyline cardinality of the
// accumulated candidates — computed only when a progress hook wants it,
// at level-advance granularity, so exhaustive runs stay cheap.
func incumbentSkyline(all []*Candidate) int {
	vs := make([]skyline.Vector, len(all))
	for i, c := range all {
		vs[i] = c.Perf
	}
	return len(skyline.Skyline(vs))
}
