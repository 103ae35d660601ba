package workload

import "testing"

// fixture returns a fully-populated descriptor with every field class
// exercised: ordered slices, set-valued slices, nested structs, an
// optional pointer.
func fixture() *Descriptor {
	return &Descriptor{
		Version: Version,
		Name:    "display-name",
		Task:    "custom",
		Rows:    360,
		Tables: []TableDigest{
			{Name: "a.csv", Rows: 100, Cols: 3, SHA: "aa11"},
			{Name: "b.csv", Rows: 50, Cols: 2, SHA: "bb22"},
		},
		Universal:  TableDigest{Name: "D_U", Rows: 120, Cols: 4, SHA: "cc33"},
		Attributes: []string{"a:float", "b:int", "c:string"},
		Target:     "y",
		Model:      "GBmovie",
		Measures:   []string{"pAcc", "pTrain"},
		Encoder: EncoderOptions{
			AdomK:        4,
			SkipLiterals: []string{"id", "aux"},
			Protected:    []string{"id"},
		},
		Surrogate: &SurrogateOptions{WarmupExact: 9, ExactEvery: 4},
		UDFs:      []string{"impute-means", "drop-sparse"},
	}
}

// TestHashGolden pins the hash function itself: a fixed descriptor must
// hash to the same address in every process, on every platform, in
// every future build — the restart-stability half of the contract. If
// this test ever fails, the descriptor format changed and Version must
// be bumped (existing state directories would otherwise orphan).
func TestHashGolden(t *testing.T) {
	const want = "08b88e5b41d20fb7de944bdc0718113df6196183fa38d469db062f8cbdc0e6f7"
	if got := fixture().Hash(); got != want {
		t.Fatalf("fixture hash = %s, want %s (format drifted: bump workload.Version)", got, want)
	}
}

// TestHashIgnoresDisplayName: renaming a catalog entry must not move
// its shard.
func TestHashIgnoresDisplayName(t *testing.T) {
	a, b := fixture(), fixture()
	b.Name = "entirely-different"
	if a.Hash() != b.Hash() {
		t.Fatal("display name leaked into the hash")
	}
	b.Name = ""
	if a.Hash() != b.Hash() {
		t.Fatal("empty display name changed the hash")
	}
}

// TestHashSetSemantics: the skip/protected lists are sets — their
// order must not matter; their content must.
func TestHashSetSemantics(t *testing.T) {
	a, b := fixture(), fixture()
	b.Encoder.SkipLiterals = []string{"aux", "id"} // reordered
	if a.Hash() != b.Hash() {
		t.Fatal("skip-literal order changed the hash; the field is a set")
	}
	b.Encoder.SkipLiterals = []string{"aux"}
	if a.Hash() == b.Hash() {
		t.Fatal("skip-literal content did not change the hash")
	}
}

// TestHashSensitivity: every identity-bearing field must move the
// hash when it changes — ordered fields on reorder too.
func TestHashSensitivity(t *testing.T) {
	base := fixture().Hash()
	for name, mutate := range map[string]func(*Descriptor){
		"task":            func(d *Descriptor) { d.Task = "t1" },
		"rows":            func(d *Descriptor) { d.Rows = 999 },
		"table sha":       func(d *Descriptor) { d.Tables[0].SHA = "ff00" },
		"universal sha":   func(d *Descriptor) { d.Universal.SHA = "ff00" },
		"attribute order": func(d *Descriptor) { d.Attributes[0], d.Attributes[1] = d.Attributes[1], d.Attributes[0] },
		"target":          func(d *Descriptor) { d.Target = "z" },
		"model":           func(d *Descriptor) { d.Model = "other" },
		"measure order":   func(d *Descriptor) { d.Measures[0], d.Measures[1] = d.Measures[1], d.Measures[0] },
		"adom k":          func(d *Descriptor) { d.Encoder.AdomK = 30 },
		"protected":       func(d *Descriptor) { d.Encoder.Protected = nil },
		"surrogate off":   func(d *Descriptor) { d.Surrogate = nil },
		"surrogate knobs": func(d *Descriptor) { d.Surrogate.ExactEvery = 16 },
		"udf order":       func(d *Descriptor) { d.UDFs[0], d.UDFs[1] = d.UDFs[1], d.UDFs[0] },
	} {
		d := fixture()
		mutate(d)
		if d.Hash() == base {
			t.Errorf("%s: mutation did not change the hash", name)
		}
	}
}

// TestBuildTaskDeterministic: the built-in constructors are the
// cross-process identity path — two independent builds of the same
// task at the same scale must produce equal descriptors, and different
// tasks or scales must not collide.
func TestBuildTaskDeterministic(t *testing.T) {
	a, err := BuildTask("t3", 120, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildTask("t3", 120, true)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Desc.CanonicalJSON()) != string(b.Desc.CanonicalJSON()) || a.Desc.Hash() != b.Desc.Hash() {
		t.Fatal("two builds of t3@120 disagree on identity")
	}
	if c, _ := BuildTask("t3", 140, true); c.Desc.Hash() == a.Desc.Hash() {
		t.Fatal("t3@120 and t3@140 collide")
	}
	if c, _ := BuildTask("t1", 120, true); c.Desc.Hash() == a.Desc.Hash() {
		t.Fatal("t1 and t3 collide")
	}
	if c, _ := BuildTask("t3", 120, false); c.Desc.Hash() == a.Desc.Hash() {
		t.Fatal("surrogate on/off collide")
	}
	if _, err := BuildTask("t9", 0, true); err == nil {
		t.Fatal("unknown task built")
	}
}

// TestDescribeReadsSpaceStructure: Describe must recover the encoder
// structure from the space's entry layout.
func TestDescribeReadsSpaceStructure(t *testing.T) {
	b, err := BuildTask("t1", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	d := b.Desc
	if d.Task != "t1" || d.Rows == 0 || len(d.Tables) == 0 {
		t.Fatalf("t1 descriptor incomplete: %+v", d)
	}
	hasID := func(xs []string) bool {
		for _, x := range xs {
			if x == "id" {
				return true
			}
		}
		return false
	}
	if !hasID(d.Encoder.SkipLiterals) || !hasID(d.Encoder.Protected) {
		t.Fatalf("t1 id column not recovered as skip+protected: %+v", d.Encoder)
	}
	if d.Surrogate != nil {
		t.Fatal("surrogate fingerprint present on an exact-only config")
	}
	if d.Target == "" || d.Model == "" || len(d.Measures) == 0 || d.Universal.SHA == "" {
		t.Fatalf("descriptor missing core identity fields: %+v", d)
	}
}
