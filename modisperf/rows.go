package main

import (
	"math/rand"

	"repro/internal/fst"
	"repro/internal/table"
)

// rowSynth synthesizes the append batches of serve-append (and of the
// fst.append_ms probe) from the seed. A batch is built around one
// prototype row: a seeded copy of an existing universal row — so string
// cells stay inside the encoder's frozen domains — with every clustered
// attribute moved onto one of its literal value points. Three quarters
// of the batch are that prototype: any memoized state that clears one of
// the literals it sits on removes those rows and keeps its valuation.
// The last quarter leave the value points on half of their numeric
// attributes, where no literal can remove them, so fewer states survive.
// The memo is therefore retained in part and invalidated in part on
// every append, which is the case streaming exists for.
type rowSynth struct {
	rng      *rand.Rand
	schema   table.Schema
	base     []table.Row              // the universal rows as first built
	literals map[string][]table.Value // clustered attribute → its value points
	attrs    []string                 // those attributes, in entry order
}

func newRowSynth(sp *fst.Space, seed int64) *rowSynth {
	s := &rowSynth{
		rng:      rand.New(rand.NewSource(seed)),
		schema:   sp.Universal.Schema,
		base:     append([]table.Row(nil), sp.Universal.Rows...),
		literals: map[string][]table.Value{},
	}
	for _, e := range sp.Entries {
		if e.Kind != fst.EntryLiteral {
			continue
		}
		if _, seen := s.literals[e.Attr]; !seen {
			s.attrs = append(s.attrs, e.Attr)
		}
		s.literals[e.Attr] = append(s.literals[e.Attr], e.Literal.Value)
	}
	return s
}

func (s *rowSynth) batch(n int) []table.Row {
	proto := append(table.Row(nil), s.base[s.rng.Intn(len(s.base))]...)
	for _, a := range s.attrs {
		lits := s.literals[a]
		proto[s.schema.Index(a)] = lits[s.rng.Intn(len(lits))]
	}
	off := append(table.Row(nil), proto...)
	for _, a := range s.attrs {
		ci := s.schema.Index(a)
		if s.rng.Intn(2) == 0 {
			continue
		}
		switch v := off[ci]; v.Kind() {
		case table.KindFloat:
			off[ci] = table.Float(v.AsFloat() + 0.37)
		case table.KindInt:
			off[ci] = table.Int(v.AsInt() + 1000003)
		}
	}
	out := make([]table.Row, n)
	for i := range out {
		src := proto
		if i >= n-n/4 {
			src = off
		}
		out[i] = append(table.Row(nil), src...)
	}
	return out
}
