// Package skyline implements the Pareto-optimality machinery of MODis:
// dominance and ε-dominance over performance vectors (Section 4), the
// ε-grid position function of Equation (1), and skyline computation via
// Kung's algorithm and sort-filter-scan.
package skyline

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Vector is a performance vector t.P: one value per measure, all
// normalized to (0,1] and to be minimized.
type Vector []float64

// Clone deep-copies the vector.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// String renders the vector compactly.
func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

// Dominates reports a ≺-dominance: v is no worse than o on every measure
// and strictly better on at least one (all measures minimized).
func (v Vector) Dominates(o Vector) bool {
	if len(v) != len(o) {
		return false
	}
	strict := false
	for i := range v {
		if v[i] > o[i] {
			return false
		}
		if v[i] < o[i] {
			strict = true
		}
	}
	return strict
}

// EpsDominates reports ε-dominance (Section 5.1): v.p ≤ (1+ε)·o.p for
// every p, and v.p* ≤ o.p* for at least one decisive measure p*.
func (v Vector) EpsDominates(o Vector, eps float64) bool {
	if len(v) != len(o) {
		return false
	}
	decisive := false
	for i := range v {
		if v[i] > (1+eps)*o[i] {
			return false
		}
		if v[i] <= o[i] {
			decisive = true
		}
	}
	return decisive
}

// Bounds is a user-specified measure range [Lower, Upper] ⊆ (0,1].
type Bounds struct {
	Lower float64
	Upper float64
}

// DefaultBounds is the full admissible range with the paper's strictly
// positive lower bound.
func DefaultBounds() Bounds { return Bounds{Lower: 1e-3, Upper: 1} }

// GridPos computes the discretized position of Equation (1): for the
// first |P|-1 measures, pos_i = floor(log_{1+eps}(v_i / lower_i)). The
// last measure is the decisive measure and is excluded, per the paper.
func GridPos(v Vector, bounds []Bounds, eps float64) []int {
	return GridPosInto(nil, v, bounds, eps)
}

// GridPosInto is GridPos writing into dst (grown as needed), so hot
// callers can reuse one scratch slice across insertions.
func GridPosInto(dst []int, v Vector, bounds []Bounds, eps float64) []int {
	return GridPosExcept(dst, v, bounds, eps, len(v)-1)
}

// GridPosExcept is GridPosInto with the decisive measure at index skip
// instead of the last: every other measure is discretized, in index
// order.
func GridPosExcept(dst []int, v Vector, bounds []Bounds, eps float64, skip int) []int {
	n := len(v)
	if skip >= 0 && skip < len(v) {
		n--
	}
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:0]
	base := math.Log1p(eps)
	for i, x := range v {
		if i == skip {
			continue
		}
		lo := 1e-3
		if i < len(bounds) && bounds[i].Lower > 0 {
			lo = bounds[i].Lower
		}
		if x < lo {
			x = lo
		}
		dst = append(dst, int(math.Floor(math.Log(x/lo)/base)))
	}
	return dst
}

// PosKey renders a grid position as a human-readable key, for debugging
// and figures; grid maps should key on PackedPosKey instead.
func PosKey(pos []int) string {
	parts := make([]string, len(pos))
	for i, p := range pos {
		parts[i] = fmt.Sprintf("%d", p)
	}
	return strings.Join(parts, ",")
}

// packedLaneBits is the exact-encoding lane width per dimensionality:
// the bit 63 tag is reserved for the hashed fallback, so up to four
// coordinates share the low 63 bits.
var packedLaneBits = [5]uint{0, 63, 31, 21, 15}

// PackedPosKey encodes a grid position as an allocation-free uint64 map
// key. Up to four coordinates pack exactly into fixed-width lanes
// (collision free; ε-grid positions are non-negative and stay far
// inside the lane range for any practical ε — e.g. three dimensions
// give 21-bit lanes, covering ε down to ~3e-6 over the default (1e-3,
// 1] value range). Higher dimensionalities or out-of-lane coordinates
// fall back to an FNV-1a mix tagged with bit 63, so hashed keys can
// never collide with exactly-packed ones.
func PackedPosKey(pos []int) uint64 {
	if n := len(pos); n >= 1 && n <= 4 {
		lane := packedLaneBits[n]
		max := uint64(1)<<lane - 1
		var k uint64
		exact := true
		for _, p := range pos {
			if p < 0 || uint64(p) > max {
				exact = false
				break
			}
			k = k<<lane | uint64(p)
		}
		if exact {
			return k
		}
	}
	h := uint64(14695981039346656037)
	for _, p := range pos {
		h ^= uint64(p)
		h *= 1099511628211
	}
	return h | 1<<63
}

// Skyline computes the exact Pareto front of the vectors by
// sort-filter-scan: sort lexicographically, keep non-dominated. It
// returns the indexes of skyline members in input order.
func Skyline(vs []Vector) []int {
	idx := make([]int, len(vs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return lexLess(vs[idx[a]], vs[idx[b]]) })
	keep := make([]int, 0, len(vs))
	for _, i := range idx {
		dominated := false
		for _, k := range keep {
			if vs[k].Dominates(vs[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, i)
		}
	}
	sort.Ints(keep)
	return keep
}

// KungSkyline computes the Pareto front with Kung's divide-and-conquer
// algorithm [Kung, Luccio & Preparata 1975], as cited by the paper's
// exact algorithm (Theorem 1). It returns indexes in input order.
func KungSkyline(vs []Vector) []int {
	idx := make([]int, len(vs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return lexLess(vs[idx[a]], vs[idx[b]]) })
	res := idx[:kungRec(vs, idx)]
	sort.Ints(res)
	return res
}

// kungRec compacts the skyline members of idx into its prefix and
// returns their count, merging in place so the whole recursion performs
// no allocations beyond KungSkyline's single index slice.
func kungRec(vs []Vector, idx []int) int {
	if len(idx) <= 1 {
		return len(idx)
	}
	mid := len(idx) / 2
	out := kungRec(vs, idx[:mid])
	nBot := kungRec(vs, idx[mid:])
	top := idx[:out]
	// Keep members of bot not dominated by any member of top. Writes
	// trail reads: out <= mid+kept always, so the compaction is safe.
	for _, b := range idx[mid : mid+nBot] {
		dominated := false
		for _, t := range top {
			if vs[t].Dominates(vs[b]) {
				dominated = true
				break
			}
		}
		if !dominated {
			idx[out] = b
			out++
		}
	}
	return out
}

func lexLess(a, b Vector) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// IsEpsSkylineOf verifies the ε-skyline property (Section 5.1): every
// vector in all is ε-dominated by some member of set.
func IsEpsSkylineOf(set, all []Vector, eps float64) bool {
	for _, v := range all {
		covered := false
		for _, s := range set {
			if s.EpsDominates(v, eps) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}
