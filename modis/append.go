package modis

import (
	"fmt"

	"repro/internal/table"
)

// AppendResult summarizes one committed row append: the table version
// the engine advanced to and what the versioned memo did with the
// valuations recorded so far.
type AppendResult struct {
	// Version is the table version after the append (a cold engine
	// starts at 0; each Append adds 1).
	Version uint64
	// Rows is the size of this batch; TotalRows the universal row
	// count after it.
	Rows      int
	TotalRows int
	// Invalidated counts memoized valuations dropped because the new
	// rows changed their state's selected row set; Retained counts the
	// valuations that survived (their states' cleared literals remove
	// every appended row, so their datasets are untouched).
	Invalidated int
	Retained    int
}

// Append commits rows to the engine's universal table, dropping the
// structures derived from it — the decoded matrix and the per-literal
// row bitmaps, rebuilt from the grown table on next use — and advancing
// the versioned memo so exactly the valuations the new rows touched are
// dropped. The entry layout is frozen: appended rows join existing
// literal clusters or none, and a run after Append is byte-identical
// to a cold run over the concatenated table (the standing determinism
// contract, extended to streams).
//
// Append must not overlap Run/Submit executions on this engine: the
// serving layer drains in-flight runs first (see modis/serve), and
// library callers sequence Append between runs themselves. An error
// leaves the engine unchanged.
func (e *Engine) Append(rows []table.Row) (AppendResult, error) {
	if e.err != nil {
		return AppendResult{}, e.err
	}
	version, invalidated, err := e.cfg.Append(rows)
	if err != nil {
		return AppendResult{}, fmt.Errorf("modis: append: %w", err)
	}
	return AppendResult{
		Version:     version,
		Rows:        len(rows),
		TotalRows:   len(e.cfg.Space.Universal.Rows),
		Invalidated: invalidated,
		Retained:    e.cfg.Tests.Len(),
	}, nil
}

// TableVersion returns the engine's current table version: the number
// of Append batches committed since construction (0 = cold).
func (e *Engine) TableVersion() uint64 { return e.cfg.Space.Version() }

// RowCount returns the current universal row count.
func (e *Engine) RowCount() int { return len(e.cfg.Space.Universal.Rows) }
