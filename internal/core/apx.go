package core

import (
	"context"

	"repro/internal/fst"
)

// ApxMODis is Algorithm 1: the (N, ε)-approximation that reduces from
// the universal dataset. Starting at s_U it spawns one-flip Reduct
// children, valuates each expansion's children in progressive windows
// through the run's Valuator — memo hits free, exact model inferences
// fanned across the worker pool, results committed in child order so
// any parallelism degree reproduces the sequential run — and maintains
// the ε-skyline set with procedure UPareto until N states are valuated
// or the space (bounded by MaxLevel) is exhausted. The context is
// checked at frontier-pop and window granularity (workers observe it
// per job): cancellation or deadline expiry drains the pool and returns
// ctx.Err() with no partial result.
func ApxMODis(ctx context.Context, cfg *fst.Config, opts Options) (*Result, error) {
	return search(ctx, cfg, opts, spec{algo: "apx"})
}
