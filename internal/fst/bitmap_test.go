package fst

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// boolBitmap is the reference implementation the packed bitset must
// agree with: the seed's plain []bool semantics.
type boolBitmap []bool

func (b boolBitmap) ones() int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}

func (b boolBitmap) packed() Bitmap {
	p := NewBitmap(len(b))
	for i, v := range b {
		if v {
			p.Set(i)
		}
	}
	return p
}

func randomBools(rng *rand.Rand, n int) boolBitmap {
	b := make(boolBitmap, n)
	for i := range b {
		b[i] = rng.Intn(2) == 0
	}
	return b
}

// Property: Ones, Get, and Floats of the packed bitmap agree with the
// []bool reference for widths around the word boundary (trailing-word
// masking included).
func TestBitmapAgreesWithBoolReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		ref := randomBools(rng, n)
		p := ref.packed()
		if p.Len() != n || p.Ones() != ref.ones() {
			return false
		}
		fs := p.Floats()
		for i, v := range ref {
			if p.Get(i) != v {
				return false
			}
			if (fs[i] == 1) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Clone is deep — mutating the clone never leaks into the
// original, and an unmutated clone keeps the same key.
func TestBitmapCloneIsDeep(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(150)
		p := randomBools(rng, n).packed()
		c := p.Clone()
		if c.Key() != p.Key() || c.Ones() != p.Ones() {
			return false
		}
		i := rng.Intn(n)
		before := p.Get(i)
		c.Flip(i)
		return p.Get(i) == before && c.Key() != p.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: any single-bit flip changes the key, and flipping the same
// bit back restores it (the Zobrist involution the dedup maps rely on).
func TestBitmapKeyFlipUniqueness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		p := randomBools(rng, n).packed()
		k0 := p.Key()
		i := rng.Intn(n)
		p.Flip(i)
		if p.Key() == k0 {
			return false
		}
		p.Flip(i)
		return p.Key() == k0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Exhaustive key uniqueness over all 16-bit states, mirroring the
// seed's TestBitmapKeyUnique at full coverage: equal bit patterns give
// equal keys, distinct patterns give distinct keys.
func TestBitmapKeyUnique(t *testing.T) {
	seen := make(map[StateKey]uint16, 1<<16)
	for v := 0; v < 1<<16; v++ {
		b := NewBitmap(16)
		for i := 0; i < 16; i++ {
			if v&(1<<i) != 0 {
				b.Set(i)
			}
		}
		k := b.Key()
		if prev, ok := seen[k]; ok {
			t.Fatalf("key collision: patterns %016b and %016b", prev, v)
		}
		seen[k] = uint16(v)
		// Rebuilding the same pattern must reproduce the key.
		c := NewBitmap(16)
		for i := 0; i < 16; i++ {
			if v&(1<<i) != 0 {
				c.Set(i)
			}
		}
		if c.Key() != k {
			t.Fatalf("key not deterministic for pattern %016b", v)
		}
	}
}

// The search inner loop flips an entry and takes the state key once
// per probe, so that path must not allocate.
func TestBitmapFlipKeyAllocFree(t *testing.T) {
	const n = 512
	b := NewBitmap(n)
	for i := 0; i < n; i += 2 {
		b.Set(i)
	}
	var i int
	var sink StateKey
	allocs := testing.AllocsPerRun(1000, func() {
		b.Flip(i % n)
		sink ^= b.Key()
		i++
	})
	if allocs != 0 {
		t.Fatalf("Flip+Key allocated %.1f times per lookup, want 0", allocs)
	}
}

// Trailing-word masking: ForEachClear and Ones must never see ghost
// bits beyond Len, for widths straddling the 64-bit word boundary.
func TestBitmapTrailingWordMasking(t *testing.T) {
	for _, n := range []int{1, 7, 63, 64, 65, 127, 128, 129} {
		b := NewBitmap(n)
		cleared := 0
		b.ForEachClear(func(i int) {
			if i < 0 || i >= n {
				t.Fatalf("n=%d: ForEachClear yielded out-of-range index %d", n, i)
			}
			cleared++
		})
		if cleared != n {
			t.Errorf("n=%d: ForEachClear visited %d entries, want %d", n, cleared, n)
		}
		for i := 0; i < n; i++ {
			b.Set(i)
		}
		if b.Ones() != n {
			t.Errorf("n=%d: Ones = %d after setting all", n, b.Ones())
		}
		b.ForEachClear(func(i int) {
			t.Errorf("n=%d: full bitmap yielded cleared index %d", n, i)
		})
	}
}

// Mutators and Get must reject indexes beyond the width — including
// ones that land inside the final word's zero padding, where raw word
// indexing alone would silently corrupt the invariant.
func TestBitmapIndexOutOfRangePanics(t *testing.T) {
	for _, i := range []int{70, 100, 127, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Flip(%d) on width 70 should panic", i)
				}
			}()
			b := NewBitmap(70)
			b.Flip(i)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Get(70) on width 70 should panic")
			}
		}()
		NewBitmap(70).Get(70)
	}()
}

// All-clear bitmaps of different widths are different states and must
// have different keys.
func TestBitmapKeyIncludesWidth(t *testing.T) {
	if NewBitmap(3).Key() == NewBitmap(4).Key() {
		t.Error("empty bitmaps of different widths share a key")
	}
}

// Set and Clear are idempotent and keep the key in sync with a
// recomputed-from-scratch bitmap.
func TestBitmapSetClearIdempotent(t *testing.T) {
	b := NewBitmap(70)
	b.Set(69)
	k := b.Key()
	b.Set(69) // no-op
	if b.Key() != k {
		t.Error("idempotent Set changed the key")
	}
	b.Clear(69)
	b.Clear(69) // no-op
	if b.Key() != NewBitmap(70).Key() {
		t.Error("Clear did not restore the empty key")
	}
}

// Property: AndOnes equals the dot product of the reference 0/1
// vectors.
func TestBitmapAndOnes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(140)
		ra, rb := randomBools(rng, n), randomBools(rng, n)
		want := 0
		for i := range ra {
			if ra[i] && rb[i] {
				want++
			}
		}
		return ra.packed().AndOnes(rb.packed()) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBitmapString(t *testing.T) {
	if got := BitmapOf(true, false, true).String(); got != "101" {
		t.Errorf("String = %q, want 101", got)
	}
}

// OpGen fan-out stays correct across the word boundary: every child
// differs from the parent in exactly the flipped entry and carries a
// distinct key.
func TestOpGenAcrossWordBoundary(t *testing.T) {
	b := NewBitmap(130)
	for i := 0; i < 130; i += 2 {
		b.Set(i)
	}
	s := &State{Bits: b, Level: 1}
	keys := map[StateKey]bool{s.Key(): true}
	kids := OpGen(s, Forward)
	if len(kids) != 65 {
		t.Fatalf("forward fan-out = %d, want 65", len(kids))
	}
	for _, k := range kids {
		if k.Bits.Ones() != 64 || k.Bits.Get(k.Via) {
			t.Fatal("forward child must clear exactly its Via entry")
		}
		if keys[k.Key()] {
			t.Fatal("duplicate child key")
		}
		keys[k.Key()] = true
	}
	back := OpGen(s, Backward)
	if len(back) != 65 {
		t.Fatalf("backward fan-out = %d, want 65", len(back))
	}
	for _, k := range back {
		if k.Bits.Ones() != 66 || !k.Bits.Get(k.Via) {
			t.Fatal("backward child must set exactly its Via entry")
		}
	}
}
