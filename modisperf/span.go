package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: what ran (Name), for which operation (Op,
// the operation's ordinal in the run), when (nanoseconds since the
// recorder started) and the span that caused it (Parent, an index into
// the recorder's slice, -1 for an operation's root span). N carries a
// count measured at the same boundary (a window's task count).
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	N      int    `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is safe for the
// concurrent begin/end calls of pool workers.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its id.
func (r *recorder) begin(op int, name string, parent int) int {
	t := r.now()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Op: op, Name: name, Start: t, End: t, Parent: parent})
	r.mu.Unlock()
	return id
}

// end closes span id; name, when non-empty, replaces the span's name (the
// outcome is known only at the end: which valuation route a model call
// took, whether the surrogate answered).
func (r *recorder) end(id int, name string, n int) {
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	if name != "" {
		r.spans[id].Name = name
	}
	r.spans[id].N = n
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children may overlap (model
// calls of one window run in parallel), so the covered part is the
// measure of the union of the children's intervals, clipped to the
// parent.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		var covered, edge int64 = 0, s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
