package fst

import "repro/internal/table"

// UDF is a task-specific user-defined function applied to every
// materialized dataset, the extension point of Section 3: "the operators
// can be enriched by task-specific UDFs that perform additional data
// imputation, or pruning operations". UDFs run after the bitmap's
// Reduct/mask operators, in registration order. A UDF owns the table it
// is handed: Materialize builds it, rows included, fresh for each call
// and shares none of it with the universal table, so a UDF may change
// it in place and return it.
type UDF func(*table.Table) *table.Table

// RegisterUDF appends a post-materialization UDF to the space. UDFs must
// be deterministic, or the fixed-model guarantee breaks; each owns the
// table it is handed (see UDF).
func (sp *Space) RegisterUDF(f UDF) { sp.udfs = append(sp.udfs, f) }

// UDFCount reports how many UDFs are registered — the workload
// descriptor's registry fingerprint reads it, since UDF funcs carry no
// names of their own.
func (sp *Space) UDFCount() int { return len(sp.udfs) }

// applyUDFs runs the registered UDF chain.
func (sp *Space) applyUDFs(d *table.Table) *table.Table {
	for _, f := range sp.udfs {
		d = f(d)
	}
	return d
}

// ImputeMeansUDF fills null numeric cells with the column mean, in
// place — the imputation example of Section 3. String and target
// columns pass through untouched.
func ImputeMeansUDF(target string) UDF {
	return func(d *table.Table) *table.Table {
		for ci, col := range d.Schema {
			if col.Name == target || col.Kind == table.KindString {
				continue
			}
			var sum float64
			var n int
			for _, r := range d.Rows {
				if !r[ci].IsNull() {
					sum += r[ci].AsFloat()
					n++
				}
			}
			if n == 0 {
				continue
			}
			mean := sum / float64(n)
			for _, r := range d.Rows {
				if r[ci].IsNull() {
					if col.Kind == table.KindInt {
						r[ci] = table.Int(int64(mean))
					} else {
						r[ci] = table.Float(mean)
					}
				}
			}
		}
		return d
	}
}

// DropSparseRowsUDF removes tuples with more than maxNullFrac of their
// cells null, in place — the pruning example of Section 3.
func DropSparseRowsUDF(maxNullFrac float64) UDF {
	return func(d *table.Table) *table.Table {
		kept := d.Rows[:0]
		width := float64(len(d.Schema))
		for _, r := range d.Rows {
			nulls := 0
			for _, v := range r {
				if v.IsNull() {
					nulls++
				}
			}
			if width > 0 && float64(nulls)/width > maxNullFrac {
				continue
			}
			kept = append(kept, r)
		}
		d.Rows = kept
		return d
	}
}
