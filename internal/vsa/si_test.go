package vsa

import (
	"testing"

	"wytiwyg/internal/analysis"
)

func TestSINorm(t *testing.T) {
	if s := SpanSI(3, 3, 7); s.Stride != 0 {
		t.Errorf("singleton stride = %d, want 0", s.Stride)
	}
	if s := SpanSI(0, 10, 4); s.Hi != 8 {
		t.Errorf("Hi not aligned down: %v", s)
	}
	// A set leaving the window wraps to the anchor's congruence class
	// over the unsigned window — never a ray keeping the in-window bound,
	// which would deny the wrapped values' re-entry into low memory.
	if s := SpanSI(-(1 << 33), 0, 1); s != (SI{Lo: 0, Hi: 1<<32 - 1, Stride: 1}) {
		t.Errorf("wrapped-below set = %v, want [0,2^32)", s)
	}
	if s := SpanSI(0, 1<<33, 1); s != (SI{Lo: 0, Hi: 1<<32 - 1, Stride: 1}) {
		t.Errorf("wrapped-above set = %v, want [0,2^32)", s)
	}
	if s := SpanSI(0x18000000, 1<<33, 4); s != (SI{Lo: 0, Hi: 1<<32 - 4, Stride: 4}) {
		t.Errorf("wrapped strided set = %v, want 4[0,2^32-4]", s)
	}
	if s := SpanSI(1<<33+4, 1<<33+4, 0); s != (SI{Lo: 4, Hi: 4}) {
		t.Errorf("wrapped singleton = %v, want {4}", s)
	}
	if s := (SI{Lo: analysis.NegInf, Hi: analysis.PosInf, Stride: 8}).norm(); !s.IsTop() || s.Stride != 1 {
		t.Errorf("anchorless set not Top: %v", s)
	}
}

func TestSIJoinStride(t *testing.T) {
	// {0} ⊔ {4} anchors a stride-4 lattice.
	j := ConstSI(0).Join(ConstSI(4))
	if j != (SI{Lo: 0, Hi: 4, Stride: 4}) {
		t.Errorf("{0} join {4} = %v, want 4[0,4]", j)
	}
	// {0,4,8} ⊔ {2}: the anchor distance collapses the stride to 2.
	j = SpanSI(0, 8, 4).Join(ConstSI(2))
	if j.Stride != 2 {
		t.Errorf("stride after misaligned join = %d, want 2", j.Stride)
	}
	// A widened set becomes its congruence class over the unsigned
	// window: stride and residue survive, bounds do not.
	w := SpanSI(0, 16, 8).Join(SpanSI(0, 24, 8)).WidenFrom(SpanSI(0, 16, 8))
	if w != (SI{Lo: 0, Hi: 1<<32 - 8, Stride: 8}) {
		t.Errorf("widen lost stride or residue: %v, want 8[0,2^32-8]", w)
	}
}

func TestSIDisjointAccess(t *testing.T) {
	cases := []struct {
		a    SI
		szA  int64
		b    SI
		szB  int64
		want bool
	}{
		// Interval separation.
		{ConstSI(0), 4, ConstSI(4), 4, true},
		{ConstSI(0), 4, ConstSI(2), 4, false},
		{SpanSI(0, 12, 4), 4, ConstSI(16), 4, true},
		// Congruence separation: interleaved stride-8 streams.
		{SpanSI(0, analysis.PosInf, 8), 4, SpanSI(4, analysis.PosInf, 8), 4, true},
		{SpanSI(0, analysis.PosInf, 8), 8, SpanSI(4, analysis.PosInf, 8), 4, false},
		{SpanSI(0, analysis.PosInf, 8), 4, SpanSI(2, analysis.PosInf, 8), 4, false},
		// Stride 12 is not a power of two: residues do not survive the
		// 2^32 wrap (gcd(12, 2^32) = 4), so 4-byte gaps cannot separate.
		{SpanSI(0, analysis.PosInf, 12), 4, SpanSI(6, analysis.PosInf, 12), 4, false},
		// ...but bounded stride-12 sets separate by plain congruence? No:
		// bounded sets with disjoint residues still use the folded gcd.
		// Interval separation still works when ranges cannot meet.
		{SpanSI(0, 24, 12), 4, SpanSI(28, 52, 12), 4, true},
		// Signed/unsigned window ambiguity: -16 and 2^32-16 are the same
		// 32-bit address.
		{ConstSI(-16), 4, ConstSI((1 << 32) - 16), 4, false},
		// Anchorless sets never separate by congruence.
		{TopSI, 4, ConstSI(0), 4, false},
	}
	for i, c := range cases {
		if got := c.a.DisjointAccess(c.szA, c.b, c.szB); got != c.want {
			t.Errorf("case %d: %v/%d vs %v/%d = %v, want %v",
				i, c.a, c.szA, c.b, c.szB, got, c.want)
		}
	}
	// Symmetry.
	a, b := SpanSI(0, analysis.PosInf, 8), SpanSI(4, analysis.PosInf, 8)
	if a.DisjointAccess(4, b, 4) != b.DisjointAccess(4, a, 4) {
		t.Error("DisjointAccess is not symmetric")
	}
}

// TestSIWrapNoFalseDisjoint pins the wrap soundness hole: base+zext(i)·4
// with unconstrained i wraps at 2^32 and its concrete addresses cover
// every 4-aligned word — low globals included — so interval separation
// from low memory must fail; only the congruence may still separate.
func TestSIWrapNoFalseDisjoint(t *testing.T) {
	idx4 := SpanSI(0, 1<<32-1, 1).MulConst(4)
	ptr := idx4.Add(ConstSI(0x18000000))
	if ptr.DisjointAccess(4, ConstSI(0x1000), 4) {
		t.Fatalf("wrapped %v claimed disjoint from a low 4-aligned global", ptr)
	}
	// The residue that survives the wrap still separates: stride 8
	// accesses at residue 0 never touch a 4-byte cell at residue 4.
	idx8 := SpanSI(0, 1<<32-1, 1).MulConst(8)
	ptr8 := idx8.Add(ConstSI(0x18000000))
	if !ptr8.DisjointAccess(4, ConstSI(0x1004), 4) {
		t.Fatalf("wrapped %v lost its congruence vs residue-4 cell", ptr8)
	}
}

// siSample is one small strided interval with its concrete members.
type siSample struct {
	si    SI
	elems []int64
}

// sampleSIs enumerates small strided intervals — singletons and 3- and
// 5-element spans at several anchors and strides, including negative
// offsets — with their concrete members.
func sampleSIs() []siSample {
	var sets []siSample
	for _, lo := range []int64{-8, -2, 0, 1, 4, 6} {
		for _, stride := range []int64{1, 2, 3, 4, 8} {
			for _, n := range []int64{1, 3, 5} {
				hi := lo + stride*(n-1)
				var elems []int64
				for x := lo; x <= hi; x += stride {
					elems = append(elems, x)
				}
				sets = append(sets, siSample{SpanSI(lo, hi, stride), elems})
			}
		}
	}
	return sets
}

// TestSIDisjointSound enumerates small concrete sets and verifies every
// "disjoint" verdict against brute-force byte overlap under 32-bit
// wrapping addresses.
func TestSIDisjointSound(t *testing.T) {
	sets := sampleSIs()
	bytes := func(x, sz int64) map[uint32]bool {
		out := map[uint32]bool{}
		for i := int64(0); i < sz; i++ {
			out[uint32(x+i)] = true
		}
		return out
	}
	for _, sa := range sets {
		for _, sb := range sets {
			for _, szA := range []int64{1, 4} {
				for _, szB := range []int64{1, 4} {
					if !sa.si.DisjointAccess(szA, sb.si, szB) {
						continue
					}
					for _, x := range sa.elems {
						xa := bytes(x, szA)
						for _, y := range sb.elems {
							for by := range bytes(y, szB) {
								if xa[by] {
									t.Fatalf("unsound: %v/%d vs %v/%d separated, but %d and %d overlap",
										sa.si, szA, sb.si, szB, x, y)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestSIOpsSound verifies Join/Add/Sub containment on sampled sets.
func TestSIOpsSound(t *testing.T) {
	mk := func(lo, stride, n int64) (SI, []int64) {
		hi := lo + stride*(n-1)
		var elems []int64
		for x := lo; x <= hi; x += stride {
			elems = append(elems, x)
		}
		return SpanSI(lo, hi, stride), elems
	}
	var sis []SI
	var elems [][]int64
	for _, lo := range []int64{-6, 0, 5} {
		for _, stride := range []int64{1, 3, 4} {
			s, e := mk(lo, stride, 4)
			sis = append(sis, s)
			elems = append(elems, e)
		}
	}
	for i, a := range sis {
		for j, b := range sis {
			join := a.Join(b)
			add := a.Add(b)
			sub := a.Sub(b)
			for _, x := range elems[i] {
				if !join.Contains(x) {
					t.Fatalf("join %v of %v,%v misses %d", join, a, b, x)
				}
				for _, y := range elems[j] {
					if !add.Contains(x + y) {
						t.Fatalf("add %v of %v,%v misses %d", add, a, b, x+y)
					}
					if !sub.Contains(x - y) {
						t.Fatalf("sub %v of %v,%v misses %d", sub, a, b, x-y)
					}
				}
			}
			for _, y := range elems[j] {
				if !join.Contains(y) {
					t.Fatalf("join %v of %v,%v misses %d", join, a, b, y)
				}
			}
		}
	}
	// MulConst containment and overflow behavior.
	s, e := mk(-4, 4, 4)
	for _, k := range []int64{-3, 0, 2, 8} {
		m := s.MulConst(k)
		for _, x := range e {
			if !m.Contains(x * k) {
				t.Fatalf("mulconst %v of %v by %d misses %d", m, s, k, x*k)
			}
		}
	}
	if got := ConstSI(1 << 39).MulConst(1 << 39); !got.IsTop() {
		t.Errorf("overflowing MulConst = %v, want Top", got)
	}
}
