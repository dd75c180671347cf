package vsa

import (
	"fmt"
	"sort"
	"strings"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
)

// RegionKind classifies the memory regions of the abstract address space.
type RegionKind uint8

// Region kinds. Num holds plain numbers and absolute addresses (globals,
// code, emulated stack); Frame is one symbolized stack object (a distinct
// region per alloca, so offsets are alloca-relative); Heap summarizes the
// bump-allocated heap.
const (
	RegNum RegionKind = iota
	RegFrame
	RegHeap
)

// Region identifies one memory region. For RegFrame, Base is the alloca
// whose storage the region denotes; it is nil otherwise.
type Region struct {
	Kind RegionKind // which region class
	Base *ir.Value  // the identifying alloca for RegFrame
}

func (r Region) String() string {
	switch r.Kind {
	case RegFrame:
		if r.Base.Name != "" {
			return "frame:" + r.Base.Name
		}
		return fmt.Sprintf("frame:%s", r.Base)
	case RegHeap:
		return "heap"
	}
	return "num"
}

// NumRegion is the numeric/global region.
var NumRegion = Region{Kind: RegNum}

// HeapRegion is the heap summary region.
var HeapRegion = Region{Kind: RegHeap}

// ValueSet is the abstract value of one SSA value or memory cell: per
// region, a strided interval of offsets (absolute values for RegNum,
// object-relative offsets for RegFrame, allocation-relative offsets for
// RegHeap). The zero ValueSet is bottom (the empty set); Top is the
// distinguished unconstrained element.
type ValueSet struct {
	top   bool
	parts map[Region]SI
}

// TopVS is the unconstrained value set.
var TopVS = ValueSet{top: true}

// BottomVS is the empty value set (the lattice bottom).
var BottomVS = ValueSet{}

// NumVS returns a value set holding the numeric strided interval s.
func NumVS(s SI) ValueSet { return ValueSet{parts: map[Region]SI{NumRegion: s}} }

// ConstVS returns the singleton numeric value set {c}.
func ConstVS(c int64) ValueSet { return NumVS(ConstSI(c)) }

// FrameVS returns the value set pointing at offset set s within alloca a.
func FrameVS(a *ir.Value, s SI) ValueSet {
	return ValueSet{parts: map[Region]SI{{Kind: RegFrame, Base: a}: s}}
}

// HeapVS returns the value set pointing into the heap summary at offsets s.
func HeapVS(s SI) ValueSet { return ValueSet{parts: map[Region]SI{HeapRegion: s}} }

// IsTop reports whether the set is unconstrained.
func (v ValueSet) IsTop() bool { return v.top }

// IsBottom reports whether the set is empty.
func (v ValueSet) IsBottom() bool { return !v.top && len(v.parts) == 0 }

// Part returns the strided interval of region r and whether it is present.
func (v ValueSet) Part(r Region) (SI, bool) {
	s, ok := v.parts[r]
	return s, ok
}

// NumPart returns the numeric component, or false if the set may hold
// non-numeric (pointer) values or is unbounded.
func (v ValueSet) NumPart() (SI, bool) {
	if v.top || len(v.parts) != 1 {
		return SI{}, false
	}
	s, ok := v.parts[NumRegion]
	return s, ok
}

// HeapPart returns the offset set into the heap summary, if the set
// points into the heap and nothing else.
func (v ValueSet) HeapPart() (SI, bool) {
	if v.top || len(v.parts) != 1 {
		return SI{}, false
	}
	s, ok := v.parts[HeapRegion]
	return s, ok
}

// HasPointerPart reports whether the set includes a frame or heap
// region — positive evidence that the value is (at least sometimes) a
// pointer. Top reports false: an unconstrained value carries no
// evidence either way.
func (v ValueSet) HasPointerPart() bool {
	for r := range v.parts {
		if r.Kind != RegNum {
			return true
		}
	}
	return false
}

// FramePart returns the single frame region and offsets, if the set points
// into exactly one stack object and nothing else.
func (v ValueSet) FramePart() (*ir.Value, SI, bool) {
	if v.top || len(v.parts) != 1 {
		return nil, SI{}, false
	}
	for r, s := range v.parts {
		if r.Kind == RegFrame {
			return r.Base, s, true
		}
	}
	return nil, SI{}, false
}

func (v ValueSet) String() string {
	if v.top {
		return "T"
	}
	if len(v.parts) == 0 {
		return "_|_"
	}
	keys := make([]Region, 0, len(v.parts))
	for r := range v.parts {
		keys = append(keys, r)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	var sb strings.Builder
	for i, r := range keys {
		if i > 0 {
			sb.WriteString(" + ")
		}
		fmt.Fprintf(&sb, "%s%s", r, v.parts[r])
	}
	return sb.String()
}

func (v ValueSet) clone() ValueSet {
	if v.top || len(v.parts) == 0 {
		return ValueSet{top: v.top}
	}
	m := make(map[Region]SI, len(v.parts))
	for r, s := range v.parts {
		m[r] = s
	}
	return ValueSet{parts: m}
}

// Eq reports semantic equality.
func (v ValueSet) Eq(o ValueSet) bool {
	if v.top != o.top || len(v.parts) != len(o.parts) {
		return false
	}
	for r, s := range v.parts {
		if os, ok := o.parts[r]; !ok || os != s {
			return false
		}
	}
	return true
}

// Join is the lattice join (set union, region-wise).
func (v ValueSet) Join(o ValueSet) ValueSet {
	if v.top || o.top {
		return TopVS
	}
	if len(o.parts) == 0 {
		return v
	}
	if len(v.parts) == 0 {
		return o
	}
	out := v.clone()
	for r, s := range o.parts {
		if cur, ok := out.parts[r]; ok {
			out.parts[r] = cur.Join(s)
		} else {
			out.parts[r] = s
		}
	}
	return out
}

// leq reports v ⊑ o exactly as o.Join(v).Eq(o) would — joining v into o
// leaves o unchanged — without allocating the join. It is the fixpoint's
// "did this edge add anything" test.
func (v ValueSet) leq(o ValueSet) bool {
	switch {
	case o.top:
		return true
	case v.top:
		return false
	case len(v.parts) == 0:
		return true
	case len(o.parts) == 0:
		return false
	}
	for r, s := range v.parts {
		if os, ok := o.parts[r]; !ok || os.Join(s) != os {
			return false
		}
	}
	return true
}

// WidenFrom widens every region that grew since prev to infinite bounds
// (keeping strides); regions absent from prev are left as joined. When no
// region grew the receiver itself is returned (value sets are never
// mutated once built, so sharing it is safe).
func (v ValueSet) WidenFrom(prev ValueSet) ValueSet {
	if v.top || prev.top {
		return v
	}
	grew := false
	for r, s := range v.parts {
		if ps, ok := prev.parts[r]; ok && s != ps {
			grew = true
			break
		}
	}
	if !grew {
		return v
	}
	out := v.clone()
	for r, s := range out.parts {
		if ps, ok := prev.parts[r]; ok && s != ps {
			out.parts[r] = s.WidenFrom(ps)
		}
	}
	return out
}

// Add is set addition. Adding two pointer sets has no model, so at most
// one operand may have non-numeric regions; the numeric offsets shift
// every region of the other operand.
func (v ValueSet) Add(o ValueSet) ValueSet {
	if v.top || o.top || v.IsBottom() || o.IsBottom() {
		return TopVS
	}
	num, ok := o.NumPart()
	if !ok {
		// Try the symmetric orientation.
		if num, ok = v.NumPart(); !ok {
			return TopVS
		}
		v = o
	}
	out := ValueSet{parts: make(map[Region]SI, len(v.parts))}
	for r, s := range v.parts {
		out.parts[r] = s.Add(num)
	}
	return out
}

// Sub is set subtraction. Supported shapes: anything minus a number, and
// pointer minus pointer within the same single region (a plain number).
func (v ValueSet) Sub(o ValueSet) ValueSet {
	if v.top || o.top || v.IsBottom() || o.IsBottom() {
		return TopVS
	}
	if num, ok := o.NumPart(); ok {
		out := ValueSet{parts: make(map[Region]SI, len(v.parts))}
		for r, s := range v.parts {
			out.parts[r] = s.Sub(num)
		}
		return out
	}
	if len(v.parts) == 1 && len(o.parts) == 1 {
		for r, s := range v.parts {
			if os, ok := o.parts[r]; ok {
				return NumVS(s.Sub(os))
			}
		}
	}
	return TopVS
}

// Neg negates a numeric set.
func (v ValueSet) Neg() ValueSet {
	if num, ok := v.NumPart(); ok {
		return NumVS(num.Neg())
	}
	return TopVS
}

// MulConst scales a numeric set by k.
func (v ValueSet) MulConst(k int64) ValueSet {
	if num, ok := v.NumPart(); ok {
		return NumVS(num.MulConst(k))
	}
	return TopVS
}

// regionsDisjoint reports whether two distinct regions are known to occupy
// disjoint storage. Distinct frame regions never overlap (symbolized
// allocas get disjoint native-stack storage within an activation, and the
// native stack pointer only descends across activations). The heap and the
// frames are separated by the memory map: the bump allocator grows up from
// isa.HeapBase, far below irexec's native-stack region. Numeric addresses
// are only separable from frames and the heap when they are proven to stay
// below isa.HeapBase (code and globals).
func regionsDisjoint(a Region, sa SI, szA int64, b Region, sb SI, szB int64) bool {
	if a.Kind == RegFrame && b.Kind == RegFrame {
		return a.Base != b.Base
	}
	if (a.Kind == RegFrame && b.Kind == RegHeap) || (a.Kind == RegHeap && b.Kind == RegFrame) {
		return true
	}
	// Num vs Frame or Num vs Heap: order the pair so a is the numeric side.
	if b.Kind == RegNum {
		a, sa, szA = b, sb, szB
	}
	if a.Kind != RegNum {
		return false
	}
	return sa.Lo >= 0 && sa.Hi+szA <= int64(isa.HeapBase)
}

// DisjointAccess reports whether a szA-byte access at any address in v is
// provably byte-disjoint from a szB-byte access at any address in o. Heap
// offsets are summary positions, not concrete addresses, so two heap
// components never separate.
func (v ValueSet) DisjointAccess(szA int64, o ValueSet, szB int64) bool {
	if v.top || o.top || v.IsBottom() || o.IsBottom() {
		return false
	}
	for ra, sa := range v.parts {
		for rb, sb := range o.parts {
			if ra == rb {
				if ra.Kind == RegHeap {
					return false // summary region: any two cells may coincide
				}
				if !sa.DisjointAccess(szA, sb, szB) {
					return false
				}
				continue
			}
			if !regionsDisjoint(ra, sa, szA, rb, sb, szB) {
				return false
			}
		}
	}
	return true
}
