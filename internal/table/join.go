package table

import "fmt"

// sharedAttrs returns the attribute names common to both schemas, in
// left-schema order.
func sharedAttrs(a, b Schema) []string {
	var out []string
	for _, c := range a {
		if b.Has(c.Name) {
			out = append(out, c.Name)
		}
	}
	return out
}

// joinKey builds a composite hash key over the given column indexes.
// It returns ok=false if any key cell is null (nulls never join).
func joinKey(r Row, idxs []int) (string, bool) {
	key := ""
	for _, i := range idxs {
		v := r[i]
		if v.IsNull() {
			return "", false
		}
		key += v.Key() + "\x00"
	}
	return key, true
}

// EquiJoin computes the natural equi-join of a and b over their shared
// attributes using a hash join. Shared attributes appear once, taking
// a's values.
func EquiJoin(a, b *Table) *Table {
	return joinImpl(a, b, false)
}

// OuterJoin computes the full outer natural join of a and b over their
// shared attributes: unmatched tuples on either side are preserved with
// null-filled cells. This is the default universal-table constructor in
// the paper ("outer join to preserve all the values").
func OuterJoin(a, b *Table) *Table {
	return joinImpl(a, b, true)
}

func joinImpl(a, b *Table, outer bool) *Table {
	shared := sharedAttrs(a.Schema, b.Schema)
	// Result schema: all of a, then b's non-shared attributes.
	schema := a.Schema.Clone()
	var bExtra []int
	for i, c := range b.Schema {
		if !a.Schema.Has(c.Name) {
			schema = append(schema, c)
			bExtra = append(bExtra, i)
		}
	}
	out := New(fmt.Sprintf("(%s⋈%s)", a.Name, b.Name), schema)

	if len(shared) == 0 {
		// Degenerate case: no shared attributes. A cross product would
		// explode; the paper's data lakes are pre-processed into joinable
		// tables, so we align by row index (zip join) and null-pad, which
		// preserves all values of both sides.
		n := max(len(a.Rows), len(b.Rows))
		for i := 0; i < n; i++ {
			nr := make(Row, len(schema))
			if i < len(a.Rows) {
				copy(nr, a.Rows[i])
			}
			if i < len(b.Rows) {
				for j, bi := range bExtra {
					nr[len(a.Schema)+j] = b.Rows[i][bi]
				}
			}
			out.Rows = append(out.Rows, nr)
		}
		return out
	}

	aIdx := make([]int, len(shared))
	bIdx := make([]int, len(shared))
	for i, n := range shared {
		aIdx[i] = a.Schema.Index(n)
		bIdx[i] = b.Schema.Index(n)
	}

	// Build hash on b.
	build := make(map[string][]int, len(b.Rows))
	for i, r := range b.Rows {
		if k, ok := joinKey(r, bIdx); ok {
			build[k] = append(build[k], i)
		}
	}

	matchedB := make([]bool, len(b.Rows))
	for _, ra := range a.Rows {
		k, ok := joinKey(ra, aIdx)
		var matches []int
		if ok {
			matches = build[k]
		}
		if len(matches) == 0 {
			if outer {
				nr := make(Row, len(schema))
				copy(nr, ra)
				out.Rows = append(out.Rows, nr)
			}
			continue
		}
		for _, bi := range matches {
			matchedB[bi] = true
			nr := make(Row, len(schema))
			copy(nr, ra)
			for j, be := range bExtra {
				nr[len(a.Schema)+j] = b.Rows[bi][be]
			}
			out.Rows = append(out.Rows, nr)
		}
	}
	if outer {
		for bi, rb := range b.Rows {
			if matchedB[bi] {
				continue
			}
			nr := make(Row, len(schema))
			for i, n := range shared {
				nr[a.Schema.Index(n)] = rb[bIdx[i]]
			}
			for j, be := range bExtra {
				nr[len(a.Schema)+j] = rb[be]
			}
			out.Rows = append(out.Rows, nr)
		}
	}
	return out
}

// Universal constructs the universal table D_U over the dataset set D by a
// multi-way outer join, preserving all attribute values. The universal
// schema R_U is the union of local schemas.
func Universal(tables ...*Table) *Table {
	if len(tables) == 0 {
		return New("D_U", nil)
	}
	acc := tables[0].Clone()
	for _, t := range tables[1:] {
		acc = OuterJoin(acc, t)
	}
	acc.Name = "D_U"
	return acc
}
