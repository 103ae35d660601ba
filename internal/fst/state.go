package fst

import (
	"repro/internal/skyline"
)

// State is a node of the running graph G_T: a bitmap identifying a
// dataset, the level it was spawned at, and (once valuated) its
// performance vector s.P.
type State struct {
	Bits  Bitmap
	Level int
	Perf  skyline.Vector
	// Via is the bitmap entry whose flip produced this state from its
	// parent (-1 for start states), recording the transition operator.
	Via int
}

// Key returns the state's identity.
func (s *State) Key() StateKey { return s.Bits.Key() }

// Direction selects how OpGen spawns children.
type Direction uint8

const (
	// Forward applies Reduct operators (flip 1 → 0), the
	// reduce-from-universal strategy.
	Forward Direction = iota
	// Backward applies Augment operators (flip 0 → 1), the backward
	// frontier of BiMODis.
	Backward
)

// Transition records one edge (s, op, s') of the running graph.
type Transition struct {
	From  StateKey
	To    StateKey
	Entry int
	Dir   Direction
}

// RunningGraph is the DAG G_T = (V, δ) spawned by a running of T.
type RunningGraph struct {
	Nodes map[StateKey]*State
	Edges []Transition
}

// NewRunningGraph returns an empty graph.
func NewRunningGraph() *RunningGraph {
	return &RunningGraph{Nodes: map[StateKey]*State{}}
}

// AddNode registers a state if new, returning the canonical instance.
func (g *RunningGraph) AddNode(s *State) *State {
	k := s.Key()
	if ex, ok := g.Nodes[k]; ok {
		return ex
	}
	g.Nodes[k] = s
	return s
}

// AddEdge records a transition.
func (g *RunningGraph) AddEdge(from, to *State, entry int, dir Direction) {
	g.Edges = append(g.Edges, Transition{From: from.Key(), To: to.Key(), Entry: entry, Dir: dir})
}

// NumNodes returns |V|.
func (g *RunningGraph) NumNodes() int { return len(g.Nodes) }

// Valuated reports whether s.P has been filled.
func (s *State) Valuated() bool { return len(s.Perf) > 0 }

// spawn fills out with one child per flipped entry index delivered by
// iterate. The State headers come from one slab allocation; each child
// owns its bitmap words (a shared words arena would pin every sibling's
// memory for as long as any one child stays on the frontier).
func spawn(s *State, count int, iterate func(f func(i int))) []*State {
	if count == 0 {
		return nil
	}
	out := make([]*State, 0, count)
	states := make([]State, count)
	idx := 0
	iterate(func(i int) {
		child := &states[idx]
		*child = State{Bits: s.Bits.Clone(), Level: s.Level + 1, Via: i}
		child.Bits.Flip(i)
		out = append(out, child)
		idx++
	})
	return out
}

// OpGen spawns all one-flip children of s in the given direction,
// mirroring procedure OpGen of Algorithm 1: every set (resp. cleared)
// bitmap entry yields one applicable Reduct (resp. Augment) operator.
func OpGen(s *State, dir Direction) []*State {
	if dir == Forward {
		return spawn(s, s.Bits.Ones(), s.Bits.ForEachSet)
	}
	return spawn(s, s.Bits.Len()-s.Bits.Ones(), s.Bits.ForEachClear)
}

// BackSt initializes the backward start state s_b of BiMODis: all
// attribute entries stay present, and literal entries are greedily
// cleared while every value of the target's active domain remains
// covered by at least one surviving tuple — the paper's "minimal set of
// tuples that covers all values of adom of the target". The coverage
// scan walks the space's per-literal removed-row bitmaps (the same
// index Materialize and RowsFor share) instead of rescanning the
// universal table once per literal.
func BackSt(sp *Space) Bitmap {
	bits := sp.FullBitmap()
	tgtIdx := sp.Universal.Schema.Index(sp.Target)

	// coverage counts, per target value, how many present tuples carry it.
	coverage := map[string]int{}
	if tgtIdx >= 0 {
		for _, r := range sp.Universal.Rows {
			if !r[tgtIdx].IsNull() {
				coverage[r[tgtIdx].Key()]++
			}
		}
	}

	lost := map[string]int{}
	for i, e := range sp.Entries {
		if e.Kind != EntryLiteral {
			continue
		}
		// Tally target coverage lost if this literal's rows go away.
		clear(lost)
		if tgtIdx >= 0 {
			sp.forEachLitRow(i, func(row int) {
				if tv := sp.Universal.Rows[row][tgtIdx]; !tv.IsNull() {
					lost[tv.Key()]++
				}
			})
		}
		ok := true
		for k, n := range lost {
			if coverage[k]-n <= 0 {
				ok = false
				break
			}
		}
		if ok {
			bits.Clear(i)
			for k, n := range lost {
				coverage[k] -= n
			}
		}
	}
	return bits
}

// backStScan is the original per-literal table rescan, kept as the
// reference implementation BackSt is property-tested against.
func backStScan(sp *Space) Bitmap {
	bits := sp.FullBitmap()
	tgtIdx := sp.Universal.Schema.Index(sp.Target)
	coverage := map[string]int{}
	if tgtIdx >= 0 {
		for _, r := range sp.Universal.Rows {
			if !r[tgtIdx].IsNull() {
				coverage[r[tgtIdx].Key()]++
			}
		}
	}
	colIdx := map[string]int{}
	for i, c := range sp.Universal.Schema {
		colIdx[c.Name] = i
	}
	for i, e := range sp.Entries {
		if e.Kind != EntryLiteral {
			continue
		}
		ci := colIdx[e.Attr]
		lost := map[string]int{}
		for _, r := range sp.Universal.Rows {
			if r[ci].Equal(e.Literal.Value) {
				if tgtIdx >= 0 && !r[tgtIdx].IsNull() {
					lost[r[tgtIdx].Key()]++
				}
			}
		}
		ok := true
		for k, n := range lost {
			if coverage[k]-n <= 0 {
				ok = false
				break
			}
		}
		if ok {
			bits.Clear(i)
			for k, n := range lost {
				coverage[k] -= n
			}
		}
	}
	return bits
}
