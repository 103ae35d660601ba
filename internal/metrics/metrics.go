// Package metrics is the observability substrate of the serving
// layer: a dependency-free writer for the Prometheus text exposition
// format and a sliding-window reservoir for latency quantiles. The
// daemon's GET /metrics and the proxy's node aggregation are built on
// it; the modisperf benchmark scrapes the output to attribute memo
// hits, exact calls and pool time to a serving run.
package metrics

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Label is one name="value" pair of a sample. Emit labels in a fixed
// order so successive scrapes of the same series are byte-comparable.
type Label struct {
	Name  string
	Value string
}

// Writer accumulates one exposition in the Prometheus text format
// (version 0.0.4): # HELP and # TYPE headers followed by samples. Not
// safe for concurrent use; build one per scrape.
type Writer struct {
	buf  bytes.Buffer
	seen map[string]bool
}

// NewWriter returns an empty exposition.
func NewWriter() *Writer {
	return &Writer{seen: map[string]bool{}}
}

// Header emits the # HELP and # TYPE lines for a metric family. typ
// is one of counter, gauge, summary, untyped. Repeated headers for
// the same name are dropped, so callers looping over shards may
// Header unconditionally before each Sample.
func (w *Writer) Header(name, help, typ string) {
	if w.seen[name] {
		return
	}
	w.seen[name] = true
	w.buf.WriteString("# HELP ")
	w.buf.WriteString(name)
	w.buf.WriteByte(' ')
	w.buf.WriteString(strings.NewReplacer("\\", `\\`, "\n", `\n`).Replace(help))
	w.buf.WriteByte('\n')
	w.buf.WriteString("# TYPE ")
	w.buf.WriteString(name)
	w.buf.WriteByte(' ')
	w.buf.WriteString(typ)
	w.buf.WriteByte('\n')
}

// Sample emits one sample line: name{labels} value.
func (w *Writer) Sample(name string, labels []Label, value float64) {
	w.buf.WriteString(name)
	if len(labels) > 0 {
		w.buf.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				w.buf.WriteByte(',')
			}
			w.buf.WriteString(l.Name)
			w.buf.WriteString(`="`)
			w.buf.WriteString(escapeLabel(l.Value))
			w.buf.WriteByte('"')
		}
		w.buf.WriteByte('}')
	}
	w.buf.WriteByte(' ')
	w.buf.WriteString(formatValue(value))
	w.buf.WriteByte('\n')
}

// Bytes returns the exposition built so far.
func (w *Writer) Bytes() []byte { return w.buf.Bytes() }

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	return strings.NewReplacer("\\", `\\`, `"`, `\"`, "\n", `\n`).Replace(v)
}

// formatValue renders a sample value: shortest round-trip float, with
// the spec spellings of the specials.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// reservoirSize is the sliding window: big enough that p99 over a
// load run is meaningful, small enough that a sorted snapshot per
// scrape is trivial.
const reservoirSize = 1024

// Reservoir is a concurrency-safe sliding window of the most recent
// observations (in seconds) plus lifetime count and sum — the state
// behind a Prometheus summary: quantiles over the window, _count and
// _sum over the lifetime.
type Reservoir struct {
	mu    sync.Mutex
	buf   [reservoirSize]float64
	n     int // filled length
	next  int // ring cursor
	count int64
	sum   float64
}

// Observe records one duration.
func (r *Reservoir) Observe(d time.Duration) {
	s := d.Seconds()
	r.mu.Lock()
	r.buf[r.next] = s
	r.next = (r.next + 1) % reservoirSize
	if r.n < reservoirSize {
		r.n++
	}
	r.count++
	r.sum += s
	r.mu.Unlock()
}

// Count returns the lifetime observation count.
func (r *Reservoir) Count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Sum returns the lifetime sum of observations, in seconds.
func (r *Reservoir) Sum() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sum
}

// Quantiles returns the requested quantiles (each in [0,1]) over the
// window, in seconds, using nearest-rank on a sorted snapshot. With
// no observations every quantile is NaN, the summary convention.
func (r *Reservoir) Quantiles(qs ...float64) []float64 {
	r.mu.Lock()
	snap := make([]float64, r.n)
	copy(snap, r.buf[:r.n])
	r.mu.Unlock()
	out := make([]float64, len(qs))
	if len(snap) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sort.Float64s(snap)
	for i, q := range qs {
		rank := int(math.Ceil(q * float64(len(snap))))
		if rank < 1 {
			rank = 1
		}
		if rank > len(snap) {
			rank = len(snap)
		}
		out[i] = snap[rank-1]
	}
	return out
}
