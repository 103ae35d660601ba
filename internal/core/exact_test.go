package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/mosp"
	"repro/internal/skyline"
)

func TestExactMODisComputesTrueSkyline(t *testing.T) {
	cfg := newTestConfig(t, 2)
	res, err := ExactMODis(context.Background(), cfg, tuned(0, 0.1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skyline) == 0 {
		t.Fatal("empty exact skyline")
	}
	// Every valuated state is (exactly) dominated-or-equal by some member.
	for _, tst := range cfg.Tests.All() {
		covered := false
		for _, c := range res.Skyline {
			if c.Perf.Dominates(tst.Perf) || vecEqual(c.Perf, tst.Perf) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("state %v not covered by the exact skyline", tst.Perf)
		}
	}
}

// The headline guarantee of Lemma 2: every exact-skyline vector is
// ε-dominated by some member of ApxMODis' output on the same space.
func TestApxCoversExactWithinEps(t *testing.T) {
	eps := 0.2
	exactCfg := newTestConfig(t, 2)
	exact, err := ExactMODis(context.Background(), exactCfg, tuned(0, eps, 3))
	if err != nil {
		t.Fatal(err)
	}
	apxCfg := newTestConfig(t, 2)
	apx, err := ApxMODis(context.Background(), apxCfg, tuned(0, eps, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exact.Skyline {
		covered := false
		for _, a := range apx.Skyline {
			if a.Perf.EpsDominates(e.Perf, eps) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("exact skyline member %v not ε-covered by ApxMODis", e.Perf)
		}
	}
}

// ApxMODis must valuate no more states than the exhaustive algorithm on
// the same bounded space (the point of the approximation).
func TestApxValuatesNoMoreThanExact(t *testing.T) {
	exactCfg := newTestConfig(t, 2)
	exact, err := ExactMODis(context.Background(), exactCfg, tuned(0, 0.2, 3))
	if err != nil {
		t.Fatal(err)
	}
	apxCfg := newTestConfig(t, 2)
	apx, err := ApxMODis(context.Background(), apxCfg, tuned(0, 0.2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if apx.Stats.Valuated > exact.Stats.Valuated {
		t.Errorf("ApxMODis valuated %d > exact %d", apx.Stats.Valuated, exact.Stats.Valuated)
	}
}

// BuildMOSP: path costs telescope, so every label cost at a node equals
// that node's performance delta from the start state — validating the
// Lemma 2 correspondence executable-y. Every algorithm records its
// running graph, and on a fresh memo each valuated state is one node.
func TestMOSPBridgeTelescopes(t *testing.T) {
	for _, algo := range algorithmsUnderTest() {
		t.Run(algo.name, func(t *testing.T) {
			cfg := newTestConfig(t, 2)
			opts := tuned(0, 0.2, 3)
			opts.RecordGraph = true
			res, err := algo.run(context.Background(), cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Graph == nil {
				t.Fatal("running graph not recorded")
			}
			if n := res.Graph.NumNodes(); n != res.Stats.Valuated {
				t.Errorf("graph has %d nodes, run valuated %d states", n, res.Stats.Valuated)
			}
			startKey := cfg.Space.FullBitmap().Key()
			g, start, ids, err := BuildMOSP(res.Graph, cfg.Tests, startKey)
			if err != nil {
				t.Fatal(err)
			}
			startPerf, _ := cfg.Tests.Get(startKey)

			labels := mosp.Exact(g, start)
			// Every reached node's label cost must equal node.P - start.P.
			for key, id := range ids {
				tst, ok := cfg.Tests.Get(key)
				if !ok {
					continue
				}
				for _, l := range labels[id] {
					for i := range l.Cost {
						want := tst.Perf[i] - startPerf.Perf[i]
						if math.Abs(l.Cost[i]-want) > 1e-9 {
							t.Fatalf("label cost %v != telescoped delta %v", l.Cost[i], want)
						}
					}
				}
			}
		})
	}
}

// TestFinalEventCountsQueue: the final progress event of the
// exhaustive search counts the states still queued when the budget
// stops it, and none once it has drained its space.
func TestFinalEventCountsQueue(t *testing.T) {
	for _, tc := range []struct {
		opts   Options
		queued bool
	}{{tuned(20, 0.1, 4), true}, {tuned(0, 0.1, 2), false}} {
		var last ProgressEvent
		tc.opts.Progress = func(ev ProgressEvent) { last = ev }
		if _, err := ExactMODis(context.Background(), newTestConfig(t, 2), tc.opts); err != nil {
			t.Fatal(err)
		}
		if !last.Done || (last.Frontier > 0) != tc.queued {
			t.Errorf("N=%d: final event %+v", tc.opts.N, last)
		}
	}
}

func vecEqual(a, b skyline.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
