package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fst"
)

// spec names what differs between the MODis algorithms; everything
// else is the one search below.
type spec struct {
	// algo names the algorithm in progress events and errors.
	algo string
	// backward adds a second frontier that augments from the back state
	// s_b of procedure BackSt (BiMODis, DivMODis).
	backward bool
	// meet stops the search once the frontiers meet — a child of one
	// frontier was already visited by the other, so a full path
	// s_U → s_b is formed (BiMODis, Section 5.3). DivMODis does not
	// stop there although the paper builds it on BiMODis (ROADMAP 19).
	meet bool
	// prune skips valuating children whose parameterized range is
	// already ε-dominated by a skyline member (Lemma 4, BiMODis).
	prune bool
	// diversify restricts the skyline to a k-subset maximizing Div
	// after each round of expansions (DivMODis).
	diversify bool
	// exhaustive pops in FIFO order, expands every valuated state, keeps
	// every in-bounds one and computes the exact skyline with Kung's
	// algorithm at the end (ExactMODis).
	exhaustive bool
}

// search is the frontier search shared by every algorithm. It valuates
// the start states, then runs rounds until the frontiers are exhausted,
// the budget N is spent, or (meet) the frontiers meet. A round pops one
// state per frontier — the smallest mean performance first, or FIFO
// when exhaustive — and expands each state below MaxLevel: its unvisited
// one-flip children valuate in progressive windows (1, 2, 4, ... up to
// fst.MaxWindow) through the run's Valuator. Memo hits are free, exact
// inferences go to opts.ExactRunner (inline when nil), and results
// commit in child order; the schedule is a constant, so any runner
// reproduces the inline run. Between windows the prune inputs
// (skyline members, the run's own valuated history) refresh, so one
// window's results prune the next. The context is checked once per
// round and once per window: cancellation or deadline expiry drains
// the window and returns ctx.Err() with no partial result.
func search(ctx context.Context, cfg *fst.Config, opts Options, sp spec) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", sp.algo, err)
	}
	nm := len(cfg.Measures)
	if !(opts.Eps > 0) || opts.Decisive < 0 || opts.Decisive >= nm {
		return nil, fmt.Errorf("core: %s: need ε > 0 and a decisive index below %d measures, got ε %v, decisive %d",
			sp.algo, nm, opts.Eps, opts.Decisive)
	}
	start := time.Now()
	val := cfg.NewValuator(opts.ExactRunner)
	g := newGrid(cfg, opts.Eps, opts.Decisive)
	var rg *fst.RunningGraph
	if opts.RecordGraph {
		rg = fst.NewRunningGraph()
	}
	var rng *rand.Rand
	if sp.diversify {
		rng = rand.New(rand.NewSource(opts.Seed + 1))
	}
	var all []*Candidate // exhaustive: every in-bounds valuated state

	// admit records a valuated state and reports whether it keeps
	// expanding. Exhaustive runs expand everything. Otherwise, under a
	// budget, only states that improve the search grid spawn children
	// (Section 5.2, "Advantage": extending "shortest paths" first keeps
	// deep levels reachable within N); unbudgeted runs stay exhaustive,
	// matching Algorithm 1.
	admit := func(s *fst.State) bool {
		if sp.exhaustive {
			if cfg.WithinBounds(s.Perf) {
				all = append(all, &Candidate{Bits: s.Bits.Clone(), Perf: s.Perf.Clone()})
			}
			return true
		}
		return g.upareto(s.Bits, s.Perf) || opts.N == 0
	}
	skylineSize := func() int {
		if sp.exhaustive {
			return incumbentSkyline(all)
		}
		return g.size()
	}

	type side struct {
		dir     fst.Direction
		q       *frontier
		visited map[fst.StateKey]bool
	}
	roots := []*fst.State{{Bits: cfg.Space.FullBitmap(), Via: -1}}
	if sp.backward {
		roots = append(roots, &fst.State{Bits: fst.BackSt(cfg.Space), Via: -1})
	}
	sides := make([]*side, len(roots))
	for i, s := range roots {
		perf, err := val.Valuate(ctx, s.Bits)
		if err != nil {
			return nil, err
		}
		s.Perf = perf
		admit(s)
		if rg != nil {
			rg.AddNode(s)
		}
		dir := fst.Forward
		if i > 0 {
			dir = fst.Backward
		}
		sides[i] = &side{dir: dir, q: newFrontier(sp.exhaustive, s), visited: map[fst.StateKey]bool{s.Key(): true}}
	}
	queued := func() int {
		n := 0
		for _, sd := range sides {
			n += sd.q.Len()
		}
		return n
	}
	spent := func() bool { return opts.N > 0 && val.Stats.Valuations() >= opts.N }

	maxLevel, pruned := 0, 0
	var batch []*fst.State
	var weights []int // bitmap weights of val.History(), extended as it grows
	// expand valuates the unvisited children of s window by window and
	// queues those admit keeps; it reports whether a child had been
	// visited by the other frontier.
	expand := func(s *fst.State, sd *side, other map[fst.StateKey]bool) (met bool, err error) {
		prune := sp.prune && anyStrongPair(val.History(), nm, opts.Theta)
		children := fst.OpGen(s, sd.dir)
		var members []*Candidate
		for idx, size := 0, 1; idx < len(children) && !spent(); size = fst.GrowWindow(size) {
			if prune {
				weights = appendWeights(weights, val.History())
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
				if sd.visited[k] {
					continue
				}
				sd.visited[k] = true
				if prune {
					if lo, ok := paramRange(val.History(), weights, child.Bits.Ones(), nm); ok && canPrune(members, lo, opts.Eps) {
						pruned++
						continue
					}
				}
				batch = append(batch, child)
			}
			n, err := val.ValuateWindow(ctx, batch, opts.N)
			if err != nil {
				return met, err
			}
			for _, child := range batch[:n] {
				if child.Level > maxLevel {
					maxLevel = child.Level
					if opts.Progress != nil {
						opts.emit(sp.algo, maxLevel, queued(), val.Stats.Valuations(), skylineSize(), false)
					}
				}
				if rg != nil {
					rg.AddEdge(s, rg.AddNode(child), child.Via, sd.dir)
				}
				if admit(child) {
					sd.q.push(child)
				}
			}
			if n < len(batch) { // budget exhausted mid-window
				break
			}
		}
		return met, nil
	}

	for queued() > 0 && !spent() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		met := false
		for i, sd := range sides {
			if sd.q.Len() == 0 {
				continue
			}
			s := sd.q.pop()
			if opts.MaxLevel > 0 && s.Level >= opts.MaxLevel {
				continue
			}
			var other map[fst.StateKey]bool
			if len(sides) == 2 {
				other = sides[1-i].visited
			}
			m, err := expand(s, sd, other)
			if err != nil {
				return nil, err
			}
			met = met || m
		}
		if sp.meet && met {
			break
		}
		if sp.diversify {
			if members := g.members(); len(members) > opts.K {
				g.restrict(diversifyStep(members, opts.K, opts.Alpha, maxEuc(val.History()), rng))
			}
		}
	}

	out := g.finalize()
	if sp.exhaustive {
		out = exactSkyline(all)
	}
	opts.emit(sp.algo, maxLevel, queued(), val.Stats.Valuations(), len(out), true)
	return &Result{
		Skyline: out,
		Stats: RunStats{
			Valuated:   val.Stats.Valuations(),
			ExactCalls: val.Stats.ExactCalls(),
			Levels:     maxLevel,
			Pruned:     pruned,
			Elapsed:    time.Since(start),
		},
		Graph: rg,
	}, nil
}
