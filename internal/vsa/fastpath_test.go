package vsa

import (
	"testing"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/ir"
)

// sampleVSs builds value sets over the sampled strided intervals: Top,
// bottom, single-region sets in every region kind (two distinct frames),
// two-region joins, and sets whose intervals were widened or saturated.
func sampleVSs() []ValueSet {
	_, f, b := mkFunc("f")
	a1 := alloca(f, b, "a1", 16, -32)
	a2 := alloca(f, b, "a2", 16, -16)
	var sis []SI
	for i, s := range sampleSIs() {
		if i%3 == 0 {
			sis = append(sis, s.si)
		}
	}
	sis = append(sis, TopSI, SpanSI(0, 8, 4).WidenFrom(ConstSI(0)),
		SpanSI(-8, analysis.PosInf, 8))
	out := []ValueSet{TopVS, BottomVS}
	for i, s := range sis {
		o := sis[(i*7+3)%len(sis)]
		out = append(out, NumVS(s), FrameVS(a1, s), FrameVS(a2, s), HeapVS(s),
			FrameVS(a1, s).Join(FrameVS(a2, o)),
			NumVS(s).Join(FrameVS(a1, o)),
			HeapVS(s).Join(FrameVS(a2, o)))
	}
	return out
}

// TestLeqMatchesJoinEq: the allocation-free order test agrees with the
// join it replaces in the fixpoint, a ⊑ b ⟺ b ⊔ a = b, on every sampled
// pair and on every pair (a, a ⊔ c).
func TestLeqMatchesJoinEq(t *testing.T) {
	vss := sampleVSs()
	check := func(a, b ValueSet) {
		if got, want := a.leq(b), b.Join(a).Eq(b); got != want {
			t.Fatalf("(%v).leq(%v) = %v, but join-and-compare says %v", a, b, got, want)
		}
	}
	for _, a := range vss {
		for _, b := range vss {
			check(a, b)
			check(a, a.Join(b))
		}
	}
}

// widenByClone is WidenFrom's cloning path: copy the receiver and widen
// every region that grew since prev.
func widenByClone(v, prev ValueSet) ValueSet {
	if v.top || prev.top {
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

// TestWidenFromFastPathEq: returning the receiver when no region grew
// gives the same set as always cloning, on every sampled pair — including
// the widening steps the fixpoint actually takes (prev ⊔ next from prev).
func TestWidenFromFastPathEq(t *testing.T) {
	vss := sampleVSs()
	check := func(v, prev ValueSet) {
		if got, want := v.WidenFrom(prev), widenByClone(v, prev); !got.Eq(want) {
			t.Fatalf("(%v).WidenFrom(%v) = %v, cloning path gives %v", v, prev, got, want)
		}
	}
	for _, v := range vss {
		for _, prev := range vss {
			check(v, prev)
			check(prev.Join(v), prev)
		}
	}
}

// loopWithExtra builds the strided-loop function of TestOracleLoopStride
// and returns it with its values in construction order. When stale is
// set, the function's dense layout is computed before a third field
// store (a[8i+8]) is inserted into the loop body, leaving the layout
// stale; otherwise that store is part of the function from the start.
func loopWithExtra(stale bool) (*ir.Func, []*ir.Value) {
	_, f, entry := mkFunc("f")
	header := f.NewBlock(0)
	body := f.NewBlock(0)
	exit := f.NewBlock(0)
	edge(entry, header)
	edge(header, body)
	edge(header, exit)
	edge(body, header)

	a := alloca(f, entry, "a", 64, -64)
	i0 := konst(f, entry, 0)
	entry.Append(f.NewValue(ir.OpJmp))
	phi := f.NewValue(ir.OpPhi, i0, nil)
	header.AddPhi(phi)
	header.Append(f.NewValue(ir.OpBr, konst(f, header, 1)))

	addr0 := f.NewValue(ir.OpAdd, a, phi)
	body.Append(addr0)
	body.Append(f.NewValue(ir.OpStore, addr0, konst(f, body, 1)))
	extra := func() {
		addr2 := f.NewValue(ir.OpAdd, addr0, konst(f, body, 8))
		body.Append(addr2)
		body.Append(f.NewValue(ir.OpStore, addr2, konst(f, body, 3)))
	}
	if !stale {
		extra()
	}
	inext := f.NewValue(ir.OpAdd, phi, konst(f, body, 8))
	body.Append(inext)
	phi.Args[1] = inext
	body.Append(f.NewValue(ir.OpJmp))
	exit.Append(f.NewValue(ir.OpRet, konst(f, exit, 0)))

	if stale {
		f.EnsureLayout()
		// Insert the extra field right after the first store.
		tail := append([]*ir.Value(nil), body.Insts[3:]...)
		body.Insts = body.Insts[:3]
		extra()
		body.Insts = append(body.Insts, tail...)
		if f.LayoutOK() {
			panic("adding values must leave the layout stale")
		}
	}
	var vals []*ir.Value
	for _, b := range f.Blocks {
		vals = append(vals, b.Phis...)
		vals = append(vals, b.Insts...)
	}
	return f, vals
}

// TestAnalyzeStaleLayout: the env is indexed by dense value slots, so a
// function that gained values after its layout was computed must give
// the same fixpoint as one built with those values from the start.
func TestAnalyzeStaleLayout(t *testing.T) {
	fresh, freshVals := loopWithExtra(false)
	stale, staleVals := loopWithExtra(true)
	if len(freshVals) != len(staleVals) {
		t.Fatalf("value counts differ: %d vs %d", len(freshVals), len(staleVals))
	}
	want, got := Analyze(fresh), Analyze(stale)
	for i := range freshVals {
		// The two functions have distinct allocas, so compare the
		// printed sets (regions print by alloca name).
		w, g := want.ValueSetOf(freshVals[i]).String(), got.ValueSetOf(staleVals[i]).String()
		if g != w {
			t.Errorf("value %d (%s): %v on the stale layout, %v on a fresh one",
				i, staleVals[i].Op, g, w)
		}
	}
}
