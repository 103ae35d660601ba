package skyline

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b Vector
		want bool
	}{
		{Vector{1, 1}, Vector{2, 2}, true},
		{Vector{1, 2}, Vector{2, 1}, false}, // incomparable
		{Vector{1, 1}, Vector{1, 1}, false}, // no strict improvement
		{Vector{1, 1}, Vector{1, 2}, true},
		{Vector{2, 2}, Vector{1, 1}, false},
		{Vector{1}, Vector{1, 2}, false}, // length mismatch
	}
	for _, c := range cases {
		if got := c.a.Dominates(c.b); got != c.want {
			t.Errorf("%v Dominates %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestEpsDominates(t *testing.T) {
	// Paper Example 5 style: within (1+eps) on all, <= on one.
	a := Vector{0.40, 0.17}
	b := Vector{0.45, 0.22}
	if !a.EpsDominates(b, 0.3) {
		t.Error("a should 0.3-dominate b")
	}
	// b also eps-dominates a at eps=0.3: 0.45 <= 1.3*0.40 and 0.22 <= 1.3*0.17=0.221,
	// decisive needs b.p <= a.p for some p — none holds, so no.
	if b.EpsDominates(a, 0.3) {
		t.Error("b must not 0.3-dominate a (no decisive measure)")
	}
	// eps-dominance is weaker than dominance.
	if !(Vector{1, 1}).EpsDominates(Vector{1.05, 1.05}, 0.1) {
		t.Error("near-equal should eps-dominate")
	}
}

func TestGridPosExcludesDecisive(t *testing.T) {
	v := Vector{0.5, 0.25, 0.9}
	bounds := []Bounds{{Lower: 0.01}, {Lower: 0.01}, {Lower: 0.01}}
	pos := GridPos(v, bounds, 0.1)
	if len(pos) != 2 {
		t.Fatalf("pos dims = %d, want |P|-1 = 2", len(pos))
	}
}

func TestGridPosExceptSkipsOnlyTheDecisive(t *testing.T) {
	v := Vector{0.5, 0.25, 0.9}
	bounds := []Bounds{{Lower: 0.01}, {Lower: 0.01}, {Lower: 0.01}}
	all := GridPosExcept(nil, v, bounds, 0.1, -1)
	if len(all) != 3 {
		t.Fatalf("no skipped measure: pos dims = %d, want 3", len(all))
	}
	for skip := range v {
		pos := GridPosExcept(nil, v, bounds, 0.1, skip)
		want := append(append([]int{}, all[:skip]...), all[skip+1:]...)
		if len(pos) != len(want) {
			t.Fatalf("skip %d: pos %v, want %v", skip, pos, want)
		}
		for i := range want {
			if pos[i] != want[i] {
				t.Errorf("skip %d: pos %v, want %v", skip, pos, want)
			}
		}
	}
}

func TestGridPosMonotone(t *testing.T) {
	bounds := []Bounds{{Lower: 0.001}, {Lower: 0.001}}
	lo := GridPos(Vector{0.01, 1}, bounds, 0.2)
	hi := GridPos(Vector{0.5, 1}, bounds, 0.2)
	if lo[0] >= hi[0] {
		t.Errorf("grid position should grow with the measure: %v vs %v", lo, hi)
	}
}

func TestGridPosFloorsBelowLower(t *testing.T) {
	bounds := []Bounds{{Lower: 0.1}, {Lower: 0.1}}
	pos := GridPos(Vector{0.0001, 1}, bounds, 0.2)
	if pos[0] != 0 {
		t.Errorf("values below the lower bound should land in cell 0, got %d", pos[0])
	}
}

func TestSkylineKnown(t *testing.T) {
	// Example 4 of the paper: D3 and D5 are the skyline.
	vs := []Vector{
		{0.48, 0.33, 0.37}, // D1
		{0.41, 0.24, 0.37}, // D2
		{0.26, 0.15, 0.37}, // D3
		{0.37, 0.22, 0.39}, // D4
		{0.25, 0.18, 0.35}, // D5
	}
	got := Skyline(vs)
	want := map[int]bool{2: true, 4: true}
	if len(got) != 2 {
		t.Fatalf("skyline = %v, want indices {2,4}", got)
	}
	for _, i := range got {
		if !want[i] {
			t.Fatalf("skyline = %v, want indices {2,4}", got)
		}
	}
}

func TestKungMatchesSortFilter(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		d := 2 + rng.Intn(3)
		vs := make([]Vector, n)
		for i := range vs {
			vs[i] = make(Vector, d)
			for j := range vs[i] {
				vs[i][j] = float64(rng.Intn(8)) / 8
			}
		}
		a := Skyline(vs)
		b := KungSkyline(vs)
		// Both must be valid skylines of the same size covering all points.
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSkylineProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		vs := make([]Vector, n)
		for i := range vs {
			vs[i] = Vector{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		sk := Skyline(vs)
		inSk := map[int]bool{}
		for _, i := range sk {
			inSk[i] = true
		}
		// (1) No skyline member dominates another.
		for _, i := range sk {
			for _, j := range sk {
				if i != j && vs[i].Dominates(vs[j]) {
					return false
				}
			}
		}
		// (2) Every non-member is dominated by some member.
		for i := range vs {
			if inSk[i] {
				continue
			}
			dominated := false
			for _, j := range sk {
				if vs[j].Dominates(vs[i]) {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestIsEpsSkylineOf(t *testing.T) {
	all := []Vector{{0.5, 0.5}, {0.52, 0.52}, {1, 1}}
	set := []Vector{{0.5, 0.5}}
	if !IsEpsSkylineOf(set, all, 0.1) {
		t.Error("{0.5,0.5} should 0.1-cover all")
	}
	if IsEpsSkylineOf([]Vector{{1, 1}}, all, 0.1) {
		t.Error("{1,1} should not 0.1-cover {0.5,0.5}")
	}
}

func TestEpsDominanceSubsumesDominance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Vector{rng.Float64() + 0.01, rng.Float64() + 0.01}
		b := Vector{rng.Float64() + 0.01, rng.Float64() + 0.01}
		if a.Dominates(b) && !a.EpsDominates(b, 0.1) {
			return false
		}
		// Reflexive eps-dominance always holds.
		return a.EpsDominates(a, 0.1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestVectorString(t *testing.T) {
	if got := (Vector{0.5}).String(); got != "<0.5000>" {
		t.Errorf("String = %q", got)
	}
}

func TestPosKey(t *testing.T) {
	if PosKey([]int{1, -2, 3}) != "1,-2,3" {
		t.Error("PosKey format")
	}
}

// PackedPosKey must be injective wherever PosKey is, over realistic
// ε-grid coordinate ranges, at both the exact (≤4 dims) and hashed
// (>4 dims) encodings.
func TestPackedPosKeyMatchesPosKey(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := 1 + rng.Intn(6)
		mk := func() []int {
			pos := make([]int, dims)
			for i := range pos {
				pos[i] = rng.Intn(200) - 10
			}
			return pos
		}
		a, b := mk(), mk()
		if PosKey(a) == PosKey(b) {
			return PackedPosKey(a) == PackedPosKey(b)
		}
		return PackedPosKey(a) != PackedPosKey(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Regression: tiny ε produces grid coordinates in the tens of
// thousands; distinct cells must keep distinct packed keys instead of
// being truncated together.
func TestPackedPosKeyTinyEps(t *testing.T) {
	bounds := []Bounds{{Lower: 1e-3}, {Lower: 1e-3}, {Lower: 1e-3}}
	lo := GridPos(Vector{0.0014, 0.5, 0.5}, bounds, 1e-4)
	hi := GridPos(Vector{0.999, 0.5, 0.5}, bounds, 1e-4)
	if lo[0] == hi[0] {
		t.Fatal("test expects distinct grid coordinates")
	}
	if PackedPosKey(lo) == PackedPosKey(hi) {
		t.Errorf("distinct cells %v and %v share a packed key", lo, hi)
	}
	// Out-of-lane coordinates take the tagged hashed fallback, which can
	// never equal an exactly-packed key.
	huge := []int{1 << 40, 1, 2, 3}
	if PackedPosKey(huge)&(1<<63) == 0 {
		t.Error("overflowing position should use the tagged fallback")
	}
	if PackedPosKey([]int{0, 1, 2, 3})&(1<<63) != 0 {
		t.Error("in-lane position should pack exactly")
	}
}

func TestGridPosIntoReusesScratch(t *testing.T) {
	bounds := []Bounds{{Lower: 0.01}, {Lower: 0.01}, {Lower: 0.01}}
	scratch := make([]int, 0, 8)
	p1 := GridPosInto(scratch, Vector{0.5, 0.25, 0.9}, bounds, 0.1)
	p2 := GridPosInto(p1, Vector{0.5, 0.25, 0.9}, bounds, 0.1)
	if &p1[0] != &p2[0] {
		t.Error("GridPosInto should reuse the scratch backing array")
	}
	want := GridPos(Vector{0.5, 0.25, 0.9}, bounds, 0.1)
	for i := range want {
		if p2[i] != want[i] {
			t.Errorf("GridPosInto disagrees with GridPos at %d", i)
		}
	}
}
