package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/table"
	"repro/modis"
)

// This file is the serving side of streaming discovery: rows arrive
// over the wire (POST /v1/workloads/{name}/rows), the shard's
// in-flight searches drain behind a gate, the engine commits the batch
// (modis.Engine.Append), and the batch spills to the shard's rows log
// so a warm restart replays the table — and re-validates the versioned
// memo — exactly.

// defaultAppendDrainWait bounds how long an append waits for in-flight
// runs when SchedulerOptions.AppendDrainWait is unset.
const defaultAppendDrainWait = 30 * time.Second

// appendGate excludes a shard's row appends from its running searches:
// a search holds the gate in run mode for its whole execution, an
// append blocks new runs from starting and waits for the running ones
// to finish. Runs never exclude each other, and neither do appends
// (the shard's appendMu serializes those) — the gate only enforces
// that a space mutation and a search over that space never overlap.
type appendGate struct {
	mu       sync.Mutex
	running  int           // searches executing
	appends  int           // appends holding or waiting for the gate
	runnable chan struct{} // non-nil while appends > 0; closed when the last finishes
	idle     chan struct{} // non-nil while an append waits; closed when running hits 0
}

// beginRun admits one search, blocking while any append holds or
// awaits the gate.
func (g *appendGate) beginRun(ctx context.Context) error {
	for {
		g.mu.Lock()
		if g.appends == 0 {
			g.running++
			g.mu.Unlock()
			return nil
		}
		if g.runnable == nil {
			g.runnable = make(chan struct{})
		}
		ch := g.runnable
		g.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// endRun retires one admitted search, waking a waiting append when it
// was the last.
func (g *appendGate) endRun() {
	g.mu.Lock()
	g.running--
	if g.running == 0 && g.idle != nil {
		close(g.idle)
		g.idle = nil
	}
	g.mu.Unlock()
}

// beginAppend blocks new searches from starting and waits — up to wait
// (0 = only ctx bounds it) — for the running ones to finish. On
// success the caller owns the gate until endAppend.
func (g *appendGate) beginAppend(ctx context.Context, wait time.Duration) error {
	g.mu.Lock()
	g.appends++
	if g.running == 0 {
		g.mu.Unlock()
		return nil
	}
	if g.idle == nil {
		g.idle = make(chan struct{})
	}
	ch := g.idle
	g.mu.Unlock()
	var timeout <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-ch:
		return nil
	case <-timeout:
		g.mu.Lock()
		n := g.running
		g.mu.Unlock()
		g.endAppend()
		return fmt.Errorf("%w: %d runs still in flight after waiting %s to append", ErrOverloaded, n, wait)
	case <-ctx.Done():
		g.endAppend()
		return ctx.Err()
	}
}

// endAppend releases the gate, readmitting searches when this was the
// last append.
func (g *appendGate) endAppend() {
	g.mu.Lock()
	g.appends--
	if g.appends == 0 && g.runnable != nil {
		close(g.runnable)
		g.runnable = nil
	}
	g.mu.Unlock()
}

// AppendRows commits a batch of rows to the named workload's shard:
// new searches hold at the gate, in-flight ones drain (bounded by
// AppendDrainWait — a shard that cannot quiesce in time rejects with
// ErrOverloaded, the explicitly retryable failure), the engine appends
// the rows and advances the versioned memo, and the batch
// spills to the shard's durable rows log. The descriptor hash is
// untouched — appends change a shard's serving state, not its
// identity — so routing and memo keying stay stable across the stream.
func (s *Scheduler) AppendRows(ctx context.Context, workloadName string, rows []table.Row) (modis.AppendResult, error) {
	if len(rows) == 0 {
		return modis.AppendResult{}, errors.New("serve: append requires at least one row")
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return modis.AppendResult{}, ErrDraining
	}
	reg, ok := s.regs[workloadName]
	if !ok {
		s.mu.Unlock()
		return modis.AppendResult{}, fmt.Errorf("%w %q", ErrUnknownWorkload, workloadName)
	}
	sh := reg.sh
	s.mu.Unlock()

	sh.appendMu.Lock()
	defer sh.appendMu.Unlock()
	wait := s.opts.AppendDrainWait
	switch {
	case wait == 0:
		wait = defaultAppendDrainWait
	case wait < 0:
		wait = 0
	}
	if err := sh.gate.beginAppend(ctx, wait); err != nil {
		return modis.AppendResult{}, err
	}
	defer sh.gate.endAppend()
	res, err := sh.engine.Append(rows)
	if err != nil {
		return modis.AppendResult{}, err
	}
	sh.met.appends.Add(1)
	sh.met.rowsAppended.Add(int64(res.Rows))
	sh.met.memoInvalidated.Add(int64(res.Invalidated))
	sh.met.tableVersion.Store(res.Version)
	sh.met.rowCount.Store(int64(res.TotalRows))
	if s.opts.Persist != nil {
		s.opts.Persist.AppendRows(sh.hash, res.Version, rows)
	}
	return res, nil
}

// WorkloadSchema returns the universal schema of the named workload —
// what wire rows are coerced against. The schema is frozen at
// registration (appends never alter it), so the returned slice is safe
// to read concurrently with appends.
func (s *Scheduler) WorkloadSchema(name string) (table.Schema, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reg, ok := s.regs[name]
	if !ok || reg.sh.cfg.Space == nil {
		return nil, false
	}
	return reg.sh.cfg.Space.Universal.Schema, true
}

// AppendRowsRequest is the wire form of one row-append batch (POST
// /v1/workloads/{name}/rows). Each row is either a JSON array in
// universal-schema order or a JSON object keyed by column name (absent
// columns are null); each cell is null, a number, or a string, matched
// strictly against the column's kind.
type AppendRowsRequest struct {
	Rows []json.RawMessage `json:"rows"`
}

// AppendResponse reports one committed append batch: the table version
// the shard advanced to and what the versioned memo did with the
// valuations recorded so far.
type AppendResponse struct {
	Workload     string `json:"workload"`
	TableVersion uint64 `json:"table_version"`
	Rows         int    `json:"rows"`
	TotalRows    int    `json:"total_rows"`
	// MemoInvalidated counts memoized valuations dropped because the
	// batch changed their state's selected row set; MemoRetained the
	// valuations carried forward untouched.
	MemoInvalidated int `json:"memo_invalidated"`
	MemoRetained    int `json:"memo_retained"`
}

// WireRows encodes in-process rows into an AppendRowsRequest — the
// client-side counterpart of the server's coercion.
func WireRows(rows []table.Row) (AppendRowsRequest, error) {
	wire, err := encodeWireRows(rows)
	if err != nil {
		return AppendRowsRequest{}, err
	}
	return AppendRowsRequest{Rows: wire}, nil
}

// encodeWireRows renders rows as JSON arrays in schema order: null,
// number (int64s exactly — they are marshalled from the integer, not
// through float64), or string.
func encodeWireRows(rows []table.Row) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, len(rows))
	for i, r := range rows {
		cells := make([]any, len(r))
		for j, v := range r {
			switch v.Kind() {
			case table.KindNull:
				cells[j] = nil
			case table.KindInt:
				cells[j] = v.AsInt()
			case table.KindFloat:
				cells[j] = v.AsFloat()
			case table.KindString:
				cells[j] = v.AsString()
			default:
				return nil, fmt.Errorf("serve: row %d cell %d has unencodable kind %v", i, j, v.Kind())
			}
		}
		blob, err := json.Marshal(cells)
		if err != nil {
			return nil, err
		}
		out[i] = blob
	}
	return out, nil
}

// decodeWireRow coerces one wire row against the universal schema. A
// JSON array must carry exactly one cell per schema column, in order;
// a JSON object names its columns and leaves the rest null.
func decodeWireRow(schema table.Schema, raw json.RawMessage) (table.Row, error) {
	t := bytes.TrimSpace(raw)
	if len(t) == 0 {
		return nil, errors.New("empty row")
	}
	switch t[0] {
	case '[':
		var cells []json.RawMessage
		if err := json.Unmarshal(t, &cells); err != nil {
			return nil, fmt.Errorf("malformed row: %w", err)
		}
		if len(cells) != len(schema) {
			return nil, fmt.Errorf("row has %d cells, schema has %d", len(cells), len(schema))
		}
		row := make(table.Row, len(schema))
		for i, c := range cells {
			v, err := decodeWireCell(schema[i], c)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		return row, nil
	case '{':
		var cells map[string]json.RawMessage
		if err := json.Unmarshal(t, &cells); err != nil {
			return nil, fmt.Errorf("malformed row: %w", err)
		}
		row := make(table.Row, len(schema))
		for i := range row {
			row[i] = table.Null
		}
		for name, c := range cells {
			i := schema.Index(name)
			if i < 0 {
				return nil, fmt.Errorf("unknown column %q", name)
			}
			v, err := decodeWireCell(schema[i], c)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		return row, nil
	}
	return nil, errors.New("row must be a JSON array or object")
}

// decodeWireCell coerces one JSON cell against its column: null always
// passes, strings must meet string columns, numbers must meet numeric
// columns (integer syntax for int columns — fractional values are
// rejected rather than silently truncated).
func decodeWireCell(col table.Column, raw json.RawMessage) (table.Value, error) {
	t := bytes.TrimSpace(raw)
	if len(t) == 0 || string(t) == "null" {
		return table.Null, nil
	}
	if t[0] == '"' {
		if col.Kind != table.KindString {
			return table.Null, fmt.Errorf("column %q wants %v, got a string", col.Name, col.Kind)
		}
		var s string
		if err := json.Unmarshal(t, &s); err != nil {
			return table.Null, fmt.Errorf("column %q: %w", col.Name, err)
		}
		return table.Str(s), nil
	}
	switch col.Kind {
	case table.KindInt:
		i, err := strconv.ParseInt(string(t), 10, 64)
		if err != nil {
			return table.Null, fmt.Errorf("column %q wants an integer, got %s", col.Name, t)
		}
		return table.Int(i), nil
	case table.KindFloat:
		f, err := strconv.ParseFloat(string(t), 64)
		if err != nil {
			return table.Null, fmt.Errorf("column %q wants a number, got %s", col.Name, t)
		}
		return table.Float(f), nil
	}
	return table.Null, fmt.Errorf("column %q wants %v, got %s", col.Name, col.Kind, t)
}
