package table

import (
	"fmt"
	"sort"
	"strings"
)

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered attribute list (R_D in the paper).
type Schema []Column

// Index returns the position of the named attribute, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Has reports whether the schema contains the attribute.
func (s Schema) Has(name string) bool { return s.Index(name) >= 0 }

// Names returns the attribute names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Clone returns a deep copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Row is one tuple.
type Row []Value

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Table is a dataset D(A1..Am): a named tuple bag conforming to a schema.
type Table struct {
	Name   string
	Schema Schema
	Rows   []Row
}

// New returns an empty table with the given name and schema.
func New(name string, schema Schema) *Table {
	return &Table{Name: name, Schema: schema.Clone()}
}

// NumRows returns |D|.
func (t *Table) NumRows() int { return len(t.Rows) }

// NumCols returns |R_D|.
func (t *Table) NumCols() int { return len(t.Schema) }

// Append adds a row; it must match the schema width.
func (t *Table) Append(r Row) error {
	if len(r) != len(t.Schema) {
		return fmt.Errorf("table %s: row width %d != schema width %d", t.Name, len(r), len(t.Schema))
	}
	t.Rows = append(t.Rows, r)
	return nil
}

// MustAppend adds a row and panics on width mismatch; for generators and tests.
func (t *Table) MustAppend(r Row) {
	if err := t.Append(r); err != nil {
		panic(err)
	}
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	out := New(t.Name, t.Schema)
	out.Rows = make([]Row, len(t.Rows))
	for i, r := range t.Rows {
		out.Rows[i] = r.Clone()
	}
	return out
}

// Column returns the values of one attribute, or nil if absent.
func (t *Table) Column(name string) []Value {
	idx := t.Schema.Index(name)
	if idx < 0 {
		return nil
	}
	out := make([]Value, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = r[idx]
	}
	return out
}

// ActiveDomain returns adom(A): the sorted distinct non-null values of
// attribute A occurring in the table.
func (t *Table) ActiveDomain(name string) []Value {
	idx := t.Schema.Index(name)
	if idx < 0 {
		return nil
	}
	seen := make(map[string]Value)
	for _, r := range t.Rows {
		v := r[idx]
		if v.IsNull() {
			continue
		}
		seen[v.Key()] = v
	}
	out := make([]Value, 0, len(seen))
	for _, v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// String renders a short human-readable summary.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s) [%d rows]", t.Name, strings.Join(t.Schema.Names(), ","), len(t.Rows))
	return b.String()
}

// Literal is an equality condition A = a (the literal c in the paper's
// Augment/Reduct operators).
type Literal struct {
	Attr  string
	Value Value
}

// String implements fmt.Stringer.
func (l Literal) String() string { return l.Attr + "=" + l.Value.String() }

// Project returns the table restricted to the named attributes, in the
// given order; absent attributes are skipped.
func (t *Table) Project(names ...string) *Table {
	var schema Schema
	var idxs []int
	for _, n := range names {
		if i := t.Schema.Index(n); i >= 0 {
			schema = append(schema, t.Schema[i])
			idxs = append(idxs, i)
		}
	}
	out := New(t.Name+"_proj", schema)
	for _, r := range t.Rows {
		nr := make(Row, len(idxs))
		for j, i := range idxs {
			nr[j] = r[i]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out
}

// DropColumn returns the table without the named attribute. If the
// attribute is absent the table is cloned unchanged.
func (t *Table) DropColumn(name string) *Table {
	if !t.Schema.Has(name) {
		return t.Clone()
	}
	keep := make([]string, 0, len(t.Schema)-1)
	for _, c := range t.Schema {
		if c.Name != name {
			keep = append(keep, c.Name)
		}
	}
	out := t.Project(keep...)
	out.Name = t.Name
	return out
}
