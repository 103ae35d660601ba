package core

import (
	"context"
	"testing"

	"repro/internal/estimator"
	"repro/internal/fst"
	"repro/internal/workpool"
)

// algorithmsUnderTest enumerates every search entry point with its
// registry key for table-driven determinism checks.
func algorithmsUnderTest() []struct {
	name string
	run  func(context.Context, *fst.Config, Options) (*Result, error)
} {
	return []struct {
		name string
		run  func(context.Context, *fst.Config, Options) (*Result, error)
	}{
		{"apx", ApxMODis},
		{"bi", BiMODis},
		{"nobi", NOBiMODis},
		{"div", DivMODis},
		{"exact", ExactMODis},
	}
}

// withSurrogate attaches a deterministic MO-GBM estimator with a short
// warmup, exercising the surrogate planning path of the batch valuator.
func withSurrogate(cfg *fst.Config) *fst.Config {
	cfg.Est = estimator.NewMOGBM()
	cfg.WarmupExact = cfg.Space.Size() + 1
	cfg.ExactEvery = 4
	return cfg
}

func sameSkyline(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Stats.Valuated != b.Stats.Valuated || a.Stats.ExactCalls != b.Stats.ExactCalls ||
		a.Stats.Levels != b.Stats.Levels || a.Stats.Pruned != b.Stats.Pruned {
		t.Errorf("%s: stats diverge: %+v vs %+v", label, a.Stats, b.Stats)
	}
	if len(a.Skyline) != len(b.Skyline) {
		t.Fatalf("%s: skyline sizes diverge: %d vs %d", label, len(a.Skyline), len(b.Skyline))
	}
	for i := range a.Skyline {
		ca, cb := a.Skyline[i], b.Skyline[i]
		if ca.Bits.Key() != cb.Bits.Key() {
			t.Fatalf("%s: skyline member %d bitmap diverges", label, i)
		}
		if !vecEqual(ca.Perf, cb.Perf) {
			t.Fatalf("%s: skyline member %d perf diverges: %v vs %v", label, i, ca.Perf, cb.Perf)
		}
	}
}

// TestParallelMatchesSequential is the determinism contract of the
// valuation worker pool: for every algorithm, a parallel run produces
// the identical skyline, member order, and stats as the sequential run
// — with and without a stateful surrogate estimator in the loop.
func TestParallelMatchesSequential(t *testing.T) {
	for _, surrogate := range []bool{false, true} {
		for _, algo := range algorithmsUnderTest() {
			label := algo.name
			if surrogate {
				label += "+surrogate"
			}
			t.Run(label, func(t *testing.T) {
				mk := func() *fst.Config {
					cfg := newTestConfig(t, 2)
					if surrogate {
						withSurrogate(cfg)
					}
					return cfg
				}
				opts := tuned(120, 0.15, 4)
				opts.Seed, opts.K = 3, 3
				seqOpts, parOpts := opts, opts
				parOpts.ExactRunner = workpool.Global().NewQueue("test", 4)
				seq, err := algo.run(context.Background(), mk(), seqOpts)
				if err != nil {
					t.Fatal(err)
				}
				par, err := algo.run(context.Background(), mk(), parOpts)
				if err != nil {
					t.Fatal(err)
				}
				sameSkyline(t, label, seq, par)
			})
		}
	}
}

// TestParallelDeterministicAcrossRepeats guards against scheduling
// nondeterminism leaking through the pool: two parallel runs of the
// same search coincide exactly.
func TestParallelDeterministicAcrossRepeats(t *testing.T) {
	for _, algo := range algorithmsUnderTest() {
		t.Run(algo.name, func(t *testing.T) {
			opts := tuned(100, 0.2, 3)
			opts.Seed, opts.ExactRunner = 5, workpool.Global().NewQueue("test", 4)
			a, err := algo.run(context.Background(), withSurrogate(newTestConfig(t, 2)), opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := algo.run(context.Background(), withSurrogate(newTestConfig(t, 2)), opts)
			if err != nil {
				t.Fatal(err)
			}
			sameSkyline(t, algo.name, a, b)
		})
	}
}
