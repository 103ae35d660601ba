package core

import (
	"context"
	"math"

	"repro/internal/fst"
	"repro/internal/skyline"
	"repro/internal/stats"
)

// anyStrongPair reports whether G_C — nodes are measures, edges join
// strongly (|Spearman| ≥ θ) correlated pairs over the run's tests T —
// has any edge, stopping at the first one found. Correlation needs at
// least three tests.
func anyStrongPair(tests []*fst.Test, numMeasures int, theta float64) bool {
	cols := make([][]float64, numMeasures)
	for _, t := range tests {
		for j := 0; j < numMeasures && j < len(t.Perf); j++ {
			cols[j] = append(cols[j], t.Perf[j])
		}
	}
	for i := range cols {
		if len(cols[i]) < 3 {
			continue
		}
		for j := i + 1; j < len(cols); j++ {
			if math.Abs(stats.Spearman(cols[i], cols[j])) >= theta {
				return true
			}
		}
	}
	return false
}

// appendWeights extends the per-test bitmap-weight cache to cover a
// refreshed history. A run's history is append-only, so previously
// computed weights stay valid and only the new tail pays the feature
// scan — the weight derivation runs once per test instead of once per
// pruning candidate.
func appendWeights(weights []int, tests []*fst.Test) []int {
	for _, t := range tests[len(weights):] {
		w := 0
		for _, f := range t.Features {
			if f > 0.5 {
				w++
			}
		}
		weights = append(weights, w)
	}
	return weights
}

// paramRange derives the lower end p̂_l of the parameterized range
// [p̂_l, p̂_u] of an unvaluated state from the historical tests whose
// dataset size (bitmap weight, precomputed in weights) brackets the
// state's — the inference of Example 6, using |D| as the conditioning
// variable of the correlation analysis. The prune reads only p̂_l.
func paramRange(tests []*fst.Test, weights []int, ones, numMeasures int) (lo skyline.Vector, ok bool) {
	for window := 2; window <= 16; window *= 2 {
		lo = make(skyline.Vector, numMeasures)
		for i := range lo {
			lo[i] = math.Inf(1)
		}
		found := 0
		for ti, t := range tests {
			if w := weights[ti]; w < ones-window || w > ones+window {
				continue
			}
			found++
			for i := 0; i < numMeasures && i < len(t.Perf); i++ {
				if t.Perf[i] < lo[i] {
					lo[i] = t.Perf[i]
				}
			}
		}
		if found >= 2 {
			return lo, true
		}
	}
	return nil, false
}

// canPrune applies the operational form of Lemma 4: if a skyline member
// already ε-dominates the child's optimistic bound vector p̂_l, the child
// (and, under the monotonicity condition on its path, its descendants)
// cannot enter any ε-skyline over the valuated states, so its valuation
// is skipped.
func canPrune(members []*Candidate, lo skyline.Vector, eps float64) bool {
	for _, m := range members {
		dominated := true
		for i := range lo {
			if i >= len(m.Perf) || m.Perf[i] > (1+eps)*lo[i] {
				dominated = false
				break
			}
		}
		if dominated {
			return true
		}
	}
	return false
}

// BiMODis is Algorithm 2: bi-directional skyline set generation. A
// forward frontier reduces from the universal state s_U while a backward
// frontier augments from the back state s_b (procedure BackSt); both
// update the shared ε-skyline set via UPareto, and the search stops
// when the frontiers meet. Correlation-based pruning skips valuating
// states whose parameterized range — derived from the run's tests,
// refreshed between valuation windows — is already ε-dominated. Each
// expansion's surviving children valuate in progressive windows through
// the run's Valuator: exact inferences fan across the worker pool and
// results commit in child order, so any parallelism degree reproduces
// the sequential skyline. The context is checked at frontier-pop and
// window granularity: cancellation or deadline expiry drains the pool
// and returns ctx.Err() with no partial result.
func BiMODis(ctx context.Context, cfg *fst.Config, opts Options) (*Result, error) {
	return search(ctx, cfg, opts, spec{algo: "bi", backward: true, meet: true, prune: true})
}

// NOBiMODis is BiMODis without correlation-based pruning, the ablation
// used throughout the paper's experiments.
func NOBiMODis(ctx context.Context, cfg *fst.Config, opts Options) (*Result, error) {
	return search(ctx, cfg, opts, spec{algo: "nobi", backward: true, meet: true})
}
