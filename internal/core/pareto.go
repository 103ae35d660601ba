package core

import (
	"container/heap"
	"sort"

	"repro/internal/fst"
	"repro/internal/skyline"
)

// frontier is the search queue of one search direction: a min-heap on
// mean performance, so the "extend shortest paths first" prioritization
// of Section 5.2 pops in O(log n) instead of an O(n) linear scan, or,
// in FIFO mode, plain arrival order (the breadth-first exhaustive
// search). States are valuated before they are pushed, so the ordering
// score is stable while queued.
type frontier struct {
	states []*fst.State
	fifo   bool
}

// byMeanPerf orders the heap frontier.
type byMeanPerf []*fst.State

func (f byMeanPerf) Len() int           { return len(f) }
func (f byMeanPerf) Less(i, j int) bool { return meanPerf(f[i]) < meanPerf(f[j]) }
func (f byMeanPerf) Swap(i, j int)      { f[i], f[j] = f[j], f[i] }
func (f *byMeanPerf) Push(x any)        { *f = append(*f, x.(*fst.State)) }
func (f *byMeanPerf) Pop() any {
	old := *f
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	*f = old[:n-1]
	return s
}

// newFrontier queues the seed states, heapified unless fifo.
func newFrontier(fifo bool, states ...*fst.State) *frontier {
	f := &frontier{states: states, fifo: fifo}
	if !fifo {
		heap.Init((*byMeanPerf)(&f.states))
	}
	return f
}

func (f *frontier) Len() int { return len(f.states) }

func (f *frontier) push(s *fst.State) {
	if f.fifo {
		f.states = append(f.states, s)
		return
	}
	heap.Push((*byMeanPerf)(&f.states), s)
}

// pop removes and returns the oldest state (fifo) or the state with the
// smallest mean performance.
func (f *frontier) pop() *fst.State {
	if f.fifo {
		s := f.states[0]
		f.states[0] = nil
		f.states = f.states[1:]
		return s
	}
	return heap.Pop((*byMeanPerf)(&f.states)).(*fst.State)
}

func meanPerf(s *fst.State) float64 {
	if len(s.Perf) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Perf {
		sum += v
	}
	return sum / float64(len(s.Perf))
}

// grid maintains the ε-skyline set of procedure UPareto: a discretized
// (|P|-1)-ary position space (Equation 1) over every measure but the
// decisive one, holding at most one candidate per cell, replaced when a
// newcomer wins on the decisive measure.
// Cells are keyed by the integer-packed position (PackedPosKey) and the
// position scratch slice is reused across insertions, so an insert
// allocates only when a candidate actually enters.
//
// Two cell maps are kept. cells is the output skyline D_F, subject to
// the early skip on bound violation (Algorithm 1 line 23). search is the
// same structure without the bound filter: it guides which states keep
// expanding, so tight user bounds do not strangle exploration before any
// satisfying state is reachable (the paper enqueues all children;
// search-grid gating is the budget-conscious middle ground).
type grid struct {
	cells    map[uint64]*Candidate
	search   map[uint64]*Candidate
	bounds   []skyline.Bounds
	eps      float64
	decisive int
	pos      []int
}

func newGrid(cfg *fst.Config, eps float64, decisive int) *grid {
	return &grid{
		cells:    map[uint64]*Candidate{},
		search:   map[uint64]*Candidate{},
		bounds:   cfg.Bounds(),
		eps:      eps,
		decisive: decisive,
	}
}

// posKey computes the packed cell key of a vector via the shared
// scratch buffer.
func (g *grid) posKey(perf skyline.Vector) uint64 {
	g.pos = skyline.GridPosExcept(g.pos, perf, g.bounds, g.eps, g.decisive)
	return skyline.PackedPosKey(g.pos)
}

// insert merges the candidate into one cell map by decisive-measure
// comparison, reporting whether it entered.
func (g *grid) insert(cells map[uint64]*Candidate, bits fst.Bitmap, perf skyline.Vector) bool {
	key := g.posKey(perf)
	cur, ok := cells[key]
	if !ok || perf[g.decisive] < cur.Perf[g.decisive] {
		cells[key] = &Candidate{Bits: bits.Clone(), Perf: perf.Clone()}
		return true
	}
	return false
}

// upareto implements procedure UPareto (Algorithm 1, lines 20-30) for a
// freshly valuated state: early-skip on bound violation for the output
// set, merge into the grid cell by decisive-measure comparison. It
// reports whether the candidate improved the search grid (the expansion
// signal).
func (g *grid) upareto(bits fst.Bitmap, perf skyline.Vector) bool {
	entered := g.insert(g.search, bits, perf)
	within := true
	for i, b := range g.bounds {
		if i < len(perf) && perf[i] > b.Upper {
			within = false
			break
		}
	}
	if within {
		g.insert(g.cells, bits, perf)
	}
	return entered
}

// size is the current output-skyline cardinality (progress reporting).
func (g *grid) size() int { return len(g.cells) }

// members returns the current skyline candidates ordered by grid cell
// key. The deterministic order matters: diversification samples from
// it, pruning scans it, and the final skyline inherits it, so runs are
// reproducible (and parallel valuation matches sequential byte for
// byte) instead of leaking map iteration order.
func (g *grid) members() []*Candidate {
	keys := make([]uint64, 0, len(g.cells))
	for k := range g.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]*Candidate, 0, len(keys))
	for _, k := range keys {
		out = append(out, g.cells[k])
	}
	return out
}

// restrict replaces the grid contents — output and search alike — with
// the given subset: the diversification step carries its k-set to the
// next level, so future states compete against the diversified set.
func (g *grid) restrict(keep []*Candidate) {
	g.cells = map[uint64]*Candidate{}
	g.search = map[uint64]*Candidate{}
	for _, c := range keep {
		key := g.posKey(c.Perf)
		g.cells[key] = c
		g.search[key] = c
	}
}

// finalize removes exactly dominated members: if A ≺ B both sit in the
// set, dropping the dominated one preserves the ε-skyline property (the
// dominator ε-dominates everything the dominated member covered).
func (g *grid) finalize() []*Candidate {
	ms := g.members()
	vs := make([]skyline.Vector, len(ms))
	for i, c := range ms {
		vs[i] = c.Perf
	}
	keep := skyline.Skyline(vs)
	out := make([]*Candidate, 0, len(keep))
	for _, i := range keep {
		out = append(out, ms[i])
	}
	return out
}
