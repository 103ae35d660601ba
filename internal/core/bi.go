package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/fst"
	"repro/internal/skyline"
	"repro/internal/stats"
)

// anyStrongPair reports whether G_C — nodes are measures, edges join
// strongly (|Spearman| ≥ θ) correlated pairs over the test set T — has
// any edge, stopping at the first one found. Correlation needs at least
// three tests.
func anyStrongPair(cols [][]float64, theta float64) bool {
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
// refreshed history. The test order is append-only within a run, so
// previously computed weights stay valid and only the new tail pays
// the feature scan — the weight derivation runs once per test instead
// of once per pruning candidate.
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

// paramRange derives the parameterized range [p̂_l, p̂_u] of an
// unvaluated state from the historical tests whose dataset size
// (bitmap weight, precomputed in weights) brackets the state's — the
// inference of Example 6, using |D| as the conditioning variable of
// the correlation analysis.
func paramRange(tests []*fst.Test, weights []int, ones, numMeasures int) (lo, hi skyline.Vector, ok bool) {
	for window := 2; window <= 16; window *= 2 {
		lo = make(skyline.Vector, numMeasures)
		hi = make(skyline.Vector, numMeasures)
		for i := range lo {
			lo[i] = math.Inf(1)
			hi[i] = math.Inf(-1)
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
				if t.Perf[i] > hi[i] {
					hi[i] = t.Perf[i]
				}
			}
		}
		if found >= 2 {
			return lo, hi, true
		}
	}
	return nil, nil, false
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
// update the shared ε-skyline set via UPareto. Correlation-based pruning
// (unless disabled) skips valuating states whose parameterized range —
// derived from the test set at expansion start — is already ε-dominated.
// Each expansion's surviving children valuate as one batch through the
// run's Valuator: exact inferences fan across the worker pool and
// results commit in child order, so any parallelism degree reproduces
// the sequential skyline. The context is checked at frontier-pop and
// batch granularity: cancellation or deadline expiry drains the pool
// and returns ctx.Err() with no partial result.
func BiMODis(ctx context.Context, cfg *fst.Config, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: BiMODis: %w", err)
	}
	algo := "bi"
	if opts.DisablePrune {
		algo = "nobi"
	}
	start := time.Now()
	nm := len(cfg.Measures)
	val := newValuator(cfg, opts)
	g := newGrid(cfg, opts.Eps, opts.decisiveIdx(nm))
	pruned := 0

	su := &fst.State{Bits: cfg.Space.FullBitmap(), Level: 0}
	sb := &fst.State{Bits: fst.BackSt(cfg.Space), Level: 0}

	for _, s := range []*fst.State{su, sb} {
		perf, err := val.Valuate(ctx, s.Bits)
		if err != nil {
			return nil, err
		}
		s.Perf = perf
		g.upareto(s.Bits, perf)
	}

	qf := newFrontier(su)
	qb := newFrontier(sb)
	visitedF := map[fst.StateKey]bool{su.Key(): true}
	visitedB := map[fst.StateKey]bool{sb.Key(): true}
	maxLevel := 0
	var batch []*fst.State

	budget := func() bool { return opts.N > 0 && val.Stats.Valuations() >= opts.N }

	expand := func(s *fst.State, dir fst.Direction, visited, other map[fst.StateKey]bool) ([]*fst.State, bool, error) {
		met := false
		prune := !opts.DisablePrune && anyStrongPair(cfg.Tests.Columns(nm), opts.Theta)
		children := fst.OpGen(s, dir)
		var next []*fst.State
		var history []*fst.Test
		var weights []int
		// Children valuate in progressive windows (1, 2, 4, ... up to
		// fst.MaxWindow): the prune inputs (skyline members, valuated
		// history) refresh between windows, so one window's results prune
		// the next with near-sequential freshness — the cascade where a
		// freshly valuated sibling prunes the rest of the expansion still
		// fires — while wide expansions saturate the worker pool. The
		// schedule is a constant, so results do not depend on the
		// parallelism degree.
		idx := 0
		size := 1
		for idx < len(children) && !budget() {
			var members []*Candidate
			if prune {
				history = cfg.Tests.AppendAll(history)
				weights = appendWeights(weights, history)
				members = g.members()
			}
			batch = batch[:0]
			for idx < len(children) && len(batch) < size {
				child := children[idx]
				idx++
				k := child.Key()
				if other[k] {
					met = true
				}
				if visited[k] {
					continue
				}
				visited[k] = true

				if prune {
					if lo, _, ok := paramRange(history, weights, child.Bits.Ones(), nm); ok {
						if canPrune(members, lo, opts.Eps) {
							pruned++
							continue
						}
					}
				}
				batch = append(batch, child)
			}
			n, err := val.ValuateWindow(ctx, batch, opts.N)
			if err != nil {
				return nil, false, err
			}
			for _, child := range batch[:n] {
				if child.Level > maxLevel {
					maxLevel = child.Level
					opts.emit(algo, maxLevel, qf.Len()+qb.Len(), val.Stats.Valuations(), g.size(), false)
				}
				// Skyline-guided expansion under a budget; exhaustive when
				// unbudgeted (see ApxMODis).
				if g.upareto(child.Bits, child.Perf) || opts.N == 0 {
					next = append(next, child)
				}
			}
			if n < len(batch) { // budget exhausted mid-window
				break
			}
			size = fst.GrowWindow(size)
		}
		return next, met, nil
	}

	// The search terminates when both frontiers are exhausted, the
	// budget is spent, or the frontiers meet (a full path s_U → s_b is
	// formed), per Section 5.3.
	for (qf.Len() > 0 || qb.Len() > 0) && !budget() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var met bool
		if qf.Len() > 0 {
			sf := qf.pop()
			if opts.MaxLevel == 0 || sf.Level < opts.MaxLevel {
				nf, m, err := expand(sf, fst.Forward, visitedF, visitedB)
				if err != nil {
					return nil, err
				}
				met = met || m
				for _, s := range nf {
					qf.push(s)
				}
			}
		}
		if qb.Len() > 0 {
			sback := qb.pop()
			if opts.MaxLevel == 0 || sback.Level < opts.MaxLevel {
				nb, m, err := expand(sback, fst.Backward, visitedB, visitedF)
				if err != nil {
					return nil, err
				}
				met = met || m
				for _, s := range nb {
					qb.push(s)
				}
			}
		}
		if met {
			break
		}
	}

	opts.emit(algo, maxLevel, qf.Len()+qb.Len(), val.Stats.Valuations(), g.size(), true)
	return &Result{
		Skyline: g.finalize(),
		Stats: RunStats{
			Valuated:   val.Stats.Valuations(),
			ExactCalls: val.Stats.ExactCalls(),
			Levels:     maxLevel,
			Pruned:     pruned,
			Elapsed:    time.Since(start),
		},
	}, nil
}

// NOBiMODis is BiMODis without correlation-based pruning, the ablation
// used throughout the paper's experiments.
func NOBiMODis(ctx context.Context, cfg *fst.Config, opts Options) (*Result, error) {
	opts.DisablePrune = true
	return BiMODis(ctx, cfg, opts)
}
