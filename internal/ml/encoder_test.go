package ml

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/table"
)

func encoderUniversal() *table.Table {
	u := table.New("D_U", table.Schema{
		{Name: "season", Kind: table.KindString},
		{Name: "grade", Kind: table.KindString},
		{Name: "x", Kind: table.KindFloat},
		{Name: "target", Kind: table.KindFloat},
	})
	seasons := []string{"spring", "summer", "fall", "winter"}
	grades := []string{"a", "b", "c"}
	for i := 0; i < 40; i++ {
		u.MustAppend(table.Row{
			table.Str(seasons[i%4]),
			table.Str(grades[i%3]),
			table.Float(float64(i % 7)),
			table.Float(float64(i) / 10),
		})
	}
	return u
}

// randomChild derives a materialized-child-like table: a row subset
// (shrinking string domains), optional column mask, and injected nulls.
func randomChild(u *table.Table, rng *rand.Rand) *table.Table {
	out := table.New("D_s", u.Schema)
	for _, r := range u.Rows {
		if rng.Intn(4) == 0 {
			continue
		}
		nr := r.Clone()
		if rng.Intn(10) == 0 {
			nr[rng.Intn(len(nr)-1)] = table.Null
		}
		out.Rows = append(out.Rows, nr)
	}
	if rng.Intn(3) == 0 {
		out = out.Project("grade", "x", "target")
	}
	return out
}

// gathered copies Encode's result into a row-major Dataset, so a test
// can compare it with FromTable cell by cell.
func gathered(d Data) *Dataset {
	ds := &Dataset{X: gatherRows(d), Y: Labels(d)}
	switch d := d.(type) {
	case *View:
		ds.Features = d.FeatureNames()
	case *Dataset:
		ds.Features = d.Features
	}
	return ds
}

// The encoder's contract: Encode reproduces FromTable byte for byte on
// any child of the universal table it was built from — same ordinal
// codes from the shrunken domains, same mean imputation, same row
// filtering — while reusing the precomputed universal domains.
func TestEncoderMatchesFromTable(t *testing.T) {
	u := encoderUniversal()
	enc := NewTableEncoder(u, "target")
	f := func(seed int64) bool {
		child := randomChild(u, rand.New(rand.NewSource(seed)))
		want := FromTable(child, "target")
		got := gathered(enc.Encode(child))
		if len(got.X) != len(want.X) || len(got.Features) != len(want.Features) {
			return false
		}
		for i := range got.Features {
			if got.Features[i] != want.Features[i] {
				return false
			}
		}
		for i := range got.X {
			if got.Y[i] != want.Y[i] {
				return false
			}
			for j := range got.X[i] {
				if got.X[i][j] != want.X[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// A string target encodes through the shared target codec identically.
func TestEncoderStringTarget(t *testing.T) {
	u := table.New("D_U", table.Schema{
		{Name: "x", Kind: table.KindFloat},
		{Name: "label", Kind: table.KindString},
	})
	labels := []string{"low", "mid", "high"}
	for i := 0; i < 30; i++ {
		u.MustAppend(table.Row{table.Float(float64(i % 5)), table.Str(labels[i%3])})
	}
	enc := NewTableEncoder(u, "label")
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		child := randomChild(u, rng)
		if !child.Schema.Has("label") {
			continue
		}
		want := FromTable(child, "label")
		got := gathered(enc.Encode(child))
		if len(got.Y) != len(want.Y) {
			t.Fatalf("row count %d != %d", len(got.Y), len(want.Y))
		}
		for i := range got.Y {
			if got.Y[i] != want.Y[i] {
				t.Fatalf("trial %d: y[%d] = %v, want %v", trial, i, got.Y[i], want.Y[i])
			}
		}
	}
}

// Values outside the universal domain (e.g. UDF-synthesized) trip the
// transparent FromTable fallback rather than mis-encoding.
func TestEncoderFallsBackOnForeignValues(t *testing.T) {
	u := encoderUniversal()
	enc := NewTableEncoder(u, "target")
	child := u.Clone()
	child.Rows[0][0] = table.Str("monsoon") // not in the universal domain
	want := FromTable(child, "target")
	got := gathered(enc.Encode(child))
	if len(got.X) != len(want.X) {
		t.Fatalf("fallback row count %d != %d", len(got.X), len(want.X))
	}
	for i := range got.X {
		for j := range got.X[i] {
			if got.X[i][j] != want.X[i][j] {
				t.Fatalf("fallback x[%d][%d] = %v, want %v", i, j, got.X[i][j], want.X[i][j])
			}
		}
	}
}
