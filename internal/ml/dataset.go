// Package ml is a from-scratch machine-learning stack (stdlib only) that
// stands in for the scikit-learn / LightGBM / LightGCN models of the
// MODis paper. It provides fixed, deterministic models — every learner is
// seeded and uses no global randomness — as required by the paper's
// model assumption (Section 2).
package ml

import (
	"math"
	"sort"

	"repro/internal/table"
)

// Dataset is a numeric feature matrix with a target vector: the input
// form D → R^d that a data science model consumes.
type Dataset struct {
	X        [][]float64
	Y        []float64
	Features []string
}

// NumRows returns the number of examples.
func (d *Dataset) NumRows() int { return len(d.X) }

// NumFeatures returns the number of columns in X, or the number of
// named features when X has no rows.
func (d *Dataset) NumFeatures() int {
	if len(d.X) > 0 {
		return len(d.X[0])
	}
	return len(d.Features)
}

// Clone deep-copies the dataset.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{
		X:        make([][]float64, len(d.X)),
		Y:        append([]float64(nil), d.Y...),
		Features: append([]string(nil), d.Features...),
	}
	for i, r := range d.X {
		out.X[i] = append([]float64(nil), r...)
	}
	return out
}

// FromTable converts a table into a dataset predicting the target
// attribute. String columns are ordinal-encoded by active-domain order;
// null numeric cells are imputed with the column mean; rows with a null
// target are dropped. The encoding is deterministic.
func FromTable(t *table.Table, target string) *Dataset {
	tIdx := t.Schema.Index(target)
	d := &Dataset{}
	type colEnc struct {
		idx    int
		isStr  bool
		lookup map[string]float64
		mean   float64
	}
	var encs []colEnc
	for i, c := range t.Schema {
		if i == tIdx {
			continue
		}
		e := colEnc{idx: i, isStr: c.Kind == table.KindString}
		if e.isStr {
			e.lookup = map[string]float64{}
			for j, v := range t.ActiveDomain(c.Name) {
				e.lookup[v.Key()] = float64(j)
			}
		} else {
			var sum float64
			var n int
			for _, r := range t.Rows {
				if !r[i].IsNull() {
					sum += r[i].AsFloat()
					n++
				}
			}
			if n > 0 {
				e.mean = sum / float64(n)
			}
		}
		encs = append(encs, e)
		d.Features = append(d.Features, c.Name)
	}
	var tEnc map[string]float64
	if tIdx >= 0 && t.Schema[tIdx].Kind == table.KindString {
		tEnc = map[string]float64{}
		for j, v := range t.ActiveDomain(target) {
			tEnc[v.Key()] = float64(j)
		}
	}
	for _, r := range t.Rows {
		if tIdx < 0 || r[tIdx].IsNull() {
			continue
		}
		x := make([]float64, len(encs))
		for j, e := range encs {
			v := r[e.idx]
			switch {
			case v.IsNull():
				x[j] = e.mean
			case e.isStr:
				x[j] = e.lookup[v.Key()]
			default:
				x[j] = v.AsFloat()
			}
		}
		var y float64
		if tEnc != nil {
			y = tEnc[r[tIdx].Key()]
		} else {
			y = r[tIdx].AsFloat()
		}
		if math.IsNaN(y) {
			continue
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, y)
	}
	return d
}

// Split partitions the dataset into train and test subsets using a
// deterministic shuffle under the given seed.
func (d *Dataset) Split(testFrac float64, seed int64) (train, test *Dataset) {
	perm, nTest := splitPerm(len(d.X), testFrac, seed)
	train = &Dataset{Features: d.Features}
	test = &Dataset{Features: d.Features}
	for i, p := range perm {
		if i < nTest {
			test.X = append(test.X, d.X[p])
			test.Y = append(test.Y, d.Y[p])
		} else {
			train.X = append(train.X, d.X[p])
			train.Y = append(train.Y, d.Y[p])
		}
	}
	return train, test
}

// splitPerm is the one train/test shuffle of the package: every Data
// implementation partitions rows through it, so a dataset and the
// matrix view of the same state split identically by construction —
// a load-bearing invariant of the columnar fast path.
func splitPerm(n int, testFrac float64, seed int64) (perm []int, nTest int) {
	perm = newRand(seed).Perm(n)
	nTest = int(float64(n) * testFrac)
	if nTest < 1 && n > 1 {
		nTest = 1
	}
	return perm, nTest
}

// Classes returns the sorted distinct labels of Y interpreted as class ids.
func (d *Dataset) Classes() []int {
	seen := map[int]bool{}
	for _, y := range d.Y {
		seen[int(y)] = true
	}
	out := make([]int, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}
