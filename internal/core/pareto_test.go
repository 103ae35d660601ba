package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fst"
	"repro/internal/skyline"
)

// Property: after feeding any stream of vectors to the grid, the search
// members jointly ε-dominate every vector seen — the invariant behind
// Lemma 2's correctness induction.
func TestGridCoverageInvariant(t *testing.T) {
	cfg := newTestConfig(t, 3)
	cfg.Validate()
	f := func(seed int64) bool {
		g := newGrid(cfg, 0.25, 2)
		rng := rand.New(rand.NewSource(seed))
		bits := cfg.Space.FullBitmap()
		var seen []skyline.Vector
		for i := 0; i < 40; i++ {
			v := skyline.Vector{
				0.05 + 0.95*rng.Float64(),
				0.05 + 0.95*rng.Float64(),
				0.05 + 0.95*rng.Float64(),
			}
			seen = append(seen, v)
			g.upareto(bits, v)
		}
		members := make([]skyline.Vector, 0, len(g.search))
		for _, c := range g.search {
			members = append(members, c.Perf)
		}
		return skyline.IsEpsSkylineOf(members, seen, 0.25)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: finalize never returns mutually dominating members, for any
// vector stream.
func TestGridFinalizeNonDominated(t *testing.T) {
	cfg := newTestConfig(t, 2)
	cfg.Validate()
	f := func(seed int64) bool {
		g := newGrid(cfg, 0.15, 1)
		rng := rand.New(rand.NewSource(seed))
		bits := cfg.Space.FullBitmap()
		for i := 0; i < 30; i++ {
			g.upareto(bits, skyline.Vector{
				0.05 + 0.95*rng.Float64(),
				0.05 + 0.95*rng.Float64(),
			})
		}
		out := g.finalize()
		for i := range out {
			for j := range out {
				if i != j && out[i].Perf.Dominates(out[j].Perf) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: grid cell count is bounded by the ε-grid volume (the space
// cost bound of Section 5.2's analysis).
func TestGridSizeBounded(t *testing.T) {
	cfg := newTestConfig(t, 2)
	cfg.Validate()
	g := newGrid(cfg, 0.5, 1)
	bits := cfg.Space.FullBitmap()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		g.upareto(bits, skyline.Vector{
			0.001 + 0.999*rng.Float64(),
			0.001 + 0.999*rng.Float64(),
		})
	}
	// One non-decisive dimension, eps=0.5, lower bound 1e-3: at most
	// floor(log_1.5(1000)) + 1 = 18 cells.
	if len(g.search) > 18 {
		t.Errorf("grid cells = %d, exceeds the ε-grid bound 18", len(g.search))
	}
}

// TestGridDiscretizesAllButDecisive: with decisive measure 0, the grid
// keys cells on measures 1 and 2 and compares measure 0. A and B agree
// on measure 1 but sit in different cells of measure 2, so both stay;
// keying on measures 0 and 1 instead would put them in one cell and
// drop B for its worse measure 0.
func TestGridDiscretizesAllButDecisive(t *testing.T) {
	cfg := newTestConfig(t, 3)
	cfg.Validate()
	g := newGrid(cfg, 0.1, 0)
	bits := cfg.Space.FullBitmap()
	g.upareto(bits, skyline.Vector{0.50, 0.2, 0.9})
	g.upareto(bits, skyline.Vector{0.51, 0.2, 0.1})
	if ms := g.members(); len(ms) != 2 {
		t.Errorf("grid kept %d of two candidates in distinct non-decisive cells", len(ms))
	}
}

func TestFrontierPopOrder(t *testing.T) {
	a := &fst.State{Perf: skyline.Vector{0.9, 0.9}}
	b := &fst.State{Perf: skyline.Vector{0.1, 0.1}}
	c := &fst.State{Perf: skyline.Vector{0.5, 0.5}}
	q := newFrontier(false, a, b, c)
	if got := q.pop(); got != b {
		t.Fatal("pop should pick the smallest mean")
	}
	if q.Len() != 2 {
		t.Fatal("frontier size wrong after pop")
	}
	if got := q.pop(); got != c {
		t.Fatal("second pop should pick the next smallest")
	}
	fifo := newFrontier(true, a, b)
	fifo.push(c)
	for _, want := range []*fst.State{a, b, c} {
		if got := fifo.pop(); got != want {
			t.Fatal("a FIFO frontier pops in arrival order")
		}
	}
}

// popBestScan is the pre-heap reference implementation: an O(n) linear
// scan for the queue state with the smallest mean performance.
func popBestScan(queue []*fst.State) (*fst.State, []*fst.State) {
	best := 0
	bestScore := meanPerf(queue[0])
	for i := 1; i < len(queue); i++ {
		if s := meanPerf(queue[i]); s < bestScore {
			best, bestScore = i, s
		}
	}
	s := queue[best]
	queue[best] = queue[len(queue)-1]
	return s, queue[:len(queue)-1]
}

// Property: under interleaved pushes and pops, the heap frontier yields
// exactly the same mean-performance sequence as the old linear scan.
func TestFrontierMatchesLinearScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := newFrontier(false)
		var ref []*fst.State
		for step := 0; step < 120; step++ {
			if rng.Intn(3) > 0 || len(ref) == 0 {
				s := &fst.State{Perf: skyline.Vector{rng.Float64(), rng.Float64()}}
				q.push(s)
				ref = append(ref, s)
				continue
			}
			var want *fst.State
			want, ref = popBestScan(ref)
			if got := q.pop(); meanPerf(got) != meanPerf(want) {
				return false
			}
		}
		for len(ref) > 0 {
			var want *fst.State
			want, ref = popBestScan(ref)
			if got := q.pop(); meanPerf(got) != meanPerf(want) {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
