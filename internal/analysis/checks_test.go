package analysis

import (
	"strings"
	"testing"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/layout"
)

// alloca appends a stack object of the given size at sp0-relative offset.
func alloca(f *ir.Func, b *ir.Block, name string, off int32, size uint32) *ir.Value {
	a := f.NewValue(ir.OpAlloca)
	a.Name = name
	a.Const = off
	a.AllocSize = size
	a.Align = 4
	b.Append(a)
	return a
}

func load(f *ir.Func, b *ir.Block, addr *ir.Value) *ir.Value {
	l := f.NewValue(ir.OpLoad, addr)
	l.Size = 4
	b.Append(l)
	return l
}

func store(f *ir.Func, b *ir.Block, addr, val *ir.Value) *ir.Value {
	s := f.NewValue(ir.OpStore, addr, val)
	s.Size = 4
	b.Append(s)
	return s
}

func TestEscape(t *testing.T) {
	_, f, b := mkFunc("f")
	kept := alloca(f, b, "kept", -8, 8)
	leaked := alloca(f, b, "leaked", -16, 8)
	k := konst(f, b, 4)
	ptr := f.NewValue(ir.OpAdd, kept, k)
	b.Append(ptr)
	store(f, b, ptr, k)
	_ = load(f, b, kept)
	// leaked's address is passed to an external call.
	call := f.NewValue(ir.OpCallExt, leaked)
	call.Sym = "use"
	call.NumRet = 1
	b.Append(call)
	b.Append(f.NewValue(ir.OpRet, k))

	esc := Escape(f)
	if esc.Escaped[kept] {
		t.Error("kept should not escape")
	}
	if !esc.Escaped[leaked] {
		t.Error("leaked should escape")
	}
	if esc.Roots[ptr] != kept {
		t.Error("ptr not rooted at kept")
	}
}

func TestEscapeStoredAddress(t *testing.T) {
	_, f, b := mkFunc("f")
	a := alloca(f, b, "a", -8, 8)
	c := alloca(f, b, "c", -16, 8)
	store(f, b, c, a) // a's address stored into memory: escapes
	b.Append(f.NewValue(ir.OpRet, konst(f, b, 0)))

	esc := Escape(f)
	if !esc.Escaped[a] {
		t.Error("stored address must escape")
	}
	if esc.Escaped[c] {
		t.Error("store destination alone must not escape")
	}
}

func TestEscapeConflictBothEscape(t *testing.T) {
	// A value derived from two different allocas makes both unknown.
	_, f, entry := mkFunc("f")
	a := alloca(f, entry, "a", -8, 8)
	c := alloca(f, entry, "c", -16, 8)
	thenB, elseB, exit := diamond(f, entry)
	entry.Append(f.NewValue(ir.OpBr, konst(f, entry, 1)))
	thenB.Append(f.NewValue(ir.OpJmp))
	elseB.Append(f.NewValue(ir.OpJmp))
	phi := f.NewValue(ir.OpPhi, a, c)
	exit.AddPhi(phi)
	_ = load(f, exit, phi)
	exit.Append(f.NewValue(ir.OpRet, konst(f, exit, 0)))

	esc := Escape(f)
	if !esc.Escaped[a] || !esc.Escaped[c] {
		t.Error("both allocas of a conflicting phi must escape")
	}
}

func TestBoundsProvenAndViolation(t *testing.T) {
	_, f, b := mkFunc("f")
	a := alloca(f, b, "a", -8, 8)
	k4 := konst(f, b, 4)
	in := f.NewValue(ir.OpAdd, a, k4)
	b.Append(in)
	_ = load(f, b, in) // [4,8): inside
	k12 := konst(f, b, 12)
	out := f.NewValue(ir.OpAdd, a, k12)
	b.Append(out)
	oob := load(f, b, out) // [12,16): outside [0,8)
	b.Append(f.NewValue(ir.OpRet, oob))

	var rep Report
	st := CheckBounds(f, &rep)
	if st.Proven != 1 || st.Violations != 1 || st.Unproven != 0 {
		t.Fatalf("stats: %+v\n%s", st, rep.String())
	}
	if rep.Errors() != 1 {
		t.Fatalf("want 1 error, got report:\n%s", rep.String())
	}
	if !strings.Contains(rep.Diags[0].Msg, "out of bounds") {
		t.Errorf("unexpected message %q", rep.Diags[0].Msg)
	}
}

func TestBoundsLoopIndexUnproven(t *testing.T) {
	// i = phi(0, i+4); load a[i] — the widened interval leaks past the
	// object, so the access is unprovable (Warn), not a proven violation.
	_, f, entry := mkFunc("f")
	a := alloca(f, entry, "a", -16, 16)
	zero := konst(f, entry, 0)
	header := f.NewBlock(0)
	body := f.NewBlock(0)
	exit := f.NewBlock(0)
	edge(entry, header)
	edge(header, body)
	edge(header, exit)
	edge(body, header)
	entry.Append(f.NewValue(ir.OpJmp))

	phi := f.NewValue(ir.OpPhi, zero, nil)
	header.AddPhi(phi)
	header.Append(f.NewValue(ir.OpBr, konst(f, header, 1)))

	addr := f.NewValue(ir.OpAdd, a, phi)
	body.Append(addr)
	_ = load(f, body, addr)
	next := f.NewValue(ir.OpAdd, phi, konst(f, body, 4))
	body.Append(next)
	phi.Args[1] = next
	body.Append(f.NewValue(ir.OpJmp))
	exit.Append(f.NewValue(ir.OpRet, phi))

	var rep Report
	st := CheckBounds(f, &rep)
	if st.Violations != 0 {
		t.Fatalf("no violation expected:\n%s", rep.String())
	}
	if st.Unproven != 1 {
		t.Fatalf("want 1 unproven access, got %+v\n%s", st, rep.String())
	}
}

func TestBoundsMaskedIndexProven(t *testing.T) {
	// An index masked to [0, 12] keeps a 4-byte access inside a 16-byte
	// object even when the index source is unknown.
	_, f, b := mkFunc("f")
	a := alloca(f, b, "a", -16, 16)
	raw := load(f, b, a) // unknown number
	mask := konst(f, b, 12)
	idx := f.NewValue(ir.OpAnd, raw, mask)
	b.Append(idx)
	addr := f.NewValue(ir.OpAdd, a, idx)
	b.Append(addr)
	_ = load(f, b, addr)
	b.Append(f.NewValue(ir.OpRet, raw))

	var rep Report
	st := CheckBounds(f, &rep)
	if st.Proven != 2 || st.Violations != 0 || st.Unproven != 0 {
		t.Fatalf("stats: %+v\n%s", st, rep.String())
	}
}

func TestBoundsSignedOpsOnWrappedRange(t *testing.T) {
	// (p&0x7fffffff)+(q&0x7fffffff) spans [0,0xfffffffe]: its int32
	// reading is negative from 0x80000000 up, so sar, div and mod — which
	// irexec evaluates on int32 — can yield a negative index (p=q=0x7fffffff
	// gives -2 sar 28 = -1). None of the three byte accesses is provable.
	_, f, b := mkFunc("f")
	a := alloca(f, b, "a", -16, 16)
	mask := konst(f, b, 0x7fffffff)
	sum := f.NewValue(ir.OpAdd,
		f.NewValue(ir.OpAnd, load(f, b, a), mask),
		f.NewValue(ir.OpAnd, load(f, b, a), mask))
	b.Append(sum.Args[0])
	b.Append(sum.Args[1])
	b.Append(sum)
	for _, op := range []struct {
		op ir.Op
		k  int32
	}{{ir.OpSar, 28}, {ir.OpDiv, 1 << 28}, {ir.OpMod, 16}} {
		idx := f.NewValue(op.op, sum, konst(f, b, op.k))
		b.Append(idx)
		addr := f.NewValue(ir.OpAdd, a, idx)
		b.Append(addr)
		load(f, b, addr).Size = 1
	}
	b.Append(f.NewValue(ir.OpRet, sum))

	var rep Report
	st := CheckBounds(f, &rep)
	if st.Proven != 2 || st.Unproven != 3 || st.Violations != 0 {
		t.Fatalf("stats: %+v, want the two word loads proven and the three byte loads unproven\n%s",
			st, rep.String())
	}
}

func TestInitCheck(t *testing.T) {
	// Diamond: only one arm stores to the slot — the load after the join
	// may read uninitialized memory; after a store on both arms it may not.
	_, f, entry := mkFunc("f")
	a := alloca(f, entry, "a", -8, 8)
	good := alloca(f, entry, "good", -16, 8)
	k := konst(f, entry, 7)
	store(f, entry, good, k)
	thenB, elseB, exit := diamond(f, entry)
	entry.Append(f.NewValue(ir.OpBr, k))
	store(f, thenB, a, k)
	thenB.Append(f.NewValue(ir.OpJmp))
	elseB.Append(f.NewValue(ir.OpJmp))
	_ = load(f, exit, a)
	_ = load(f, exit, good)
	exit.Append(f.NewValue(ir.OpRet, k))

	var rep Report
	esc := Escape(f)
	flagged := CheckInit(f, esc, &rep)
	if flagged != 1 {
		t.Fatalf("want exactly the half-initialized load flagged, got %d:\n%s",
			flagged, rep.String())
	}
	if !strings.Contains(rep.Diags[0].Msg, `"a"`) {
		t.Errorf("wrong slot flagged: %s", rep.Diags[0].Msg)
	}
}

func TestDeadStores(t *testing.T) {
	_, f, b := mkFunc("f")
	a := alloca(f, b, "a", -8, 8)
	used := alloca(f, b, "used", -16, 8)
	k := konst(f, b, 1)
	dead := store(f, b, a, k) // never loaded again
	store(f, b, used, k)
	lv := load(f, b, used)
	b.Append(f.NewValue(ir.OpRet, lv))

	esc := Escape(f)
	got := DeadStores(f, esc)
	if len(got) != 1 || got[0] != dead {
		t.Fatalf("dead stores: %v", got)
	}
}

func TestDeadStoresEscapedKept(t *testing.T) {
	_, f, b := mkFunc("f")
	a := alloca(f, b, "a", -8, 8)
	k := konst(f, b, 1)
	store(f, b, a, k)
	call := f.NewValue(ir.OpCallExt, a) // escapes: callee may observe
	call.Sym = "use"
	call.NumRet = 1
	b.Append(call)
	b.Append(f.NewValue(ir.OpRet, k))

	if got := DeadStores(f, Escape(f)); len(got) != 0 {
		t.Fatalf("escaped store must be kept: %v", got)
	}
}

func TestCheckFrame(t *testing.T) {
	_, f, b := mkFunc("f")
	alloca(f, b, "x", -8, 8)
	alloca(f, b, "cp_0", -24, 8) // call plumbing: not in the layout table
	b.Append(f.NewValue(ir.OpRet, konst(f, b, 0)))

	clean := &layout.Frame{Func: "f", Vars: []layout.Var{{Name: "x", Offset: -8, Size: 8}}}
	var rep Report
	CheckFrame(f, clean, &rep)
	if rep.Errors() != 0 {
		t.Fatalf("clean frame flagged:\n%s", rep.String())
	}

	shifted := &layout.Frame{Func: "f", Vars: []layout.Var{{Name: "x", Offset: -12, Size: 8}}}
	rep = Report{}
	CheckFrame(f, shifted, &rep)
	if rep.Errors() != 2 { // alloca unmatched + layout var unmatched
		t.Fatalf("shifted frame: want 2 errors:\n%s", rep.String())
	}

	shrunk := &layout.Frame{Func: "f", Vars: []layout.Var{{Name: "x", Offset: -8, Size: 4}}}
	rep = Report{}
	CheckFrame(f, shrunk, &rep)
	if rep.Errors() == 0 {
		t.Fatalf("shrunk frame not flagged:\n%s", rep.String())
	}

	overlap := &layout.Frame{Func: "f", Vars: []layout.Var{
		{Name: "x", Offset: -8, Size: 8}, {Name: "y", Offset: -10, Size: 8},
	}}
	rep = Report{}
	CheckFrame(f, overlap, &rep)
	found := false
	for _, d := range rep.Diags {
		if strings.Contains(d.Msg, "overlap") {
			found = true
		}
	}
	if !found {
		t.Fatalf("overlapping layout vars not flagged:\n%s", rep.String())
	}
}

func TestCheckRefCoverage(t *testing.T) {
	_, f, b := mkFunc("f")
	alloca(f, b, "x", -8, 8)
	b.Append(f.NewValue(ir.OpRet, konst(f, b, 0)))

	facts := HeightFacts{Refs: []HeightRef{
		{Off: -8, Size: 4, Loc: "f:b0:i0"},  // covered
		{Off: -12, Size: 4, Loc: "f:b0:i1"}, // below every object
		{Off: -2, Size: 4, Loc: "f:b0:i2"},  // straddles x's end
		{Off: 4, Size: 4, Loc: "f:b0:i3"},   // incoming argument: skipped
	}}
	var rep Report
	CheckRefCoverage(f, facts, &rep)
	if rep.Errors() != 2 {
		t.Fatalf("want 2 uncovered refs, got:\n%s", rep.String())
	}
}

func TestReportRendering(t *testing.T) {
	var rep Report
	rep.Add(Diag{Check: "bounds", Severity: Warn, Func: "f", Loc: "f:b0:i1", Msg: "w"})
	rep.Add(Diag{Check: "frame", Severity: Error, Func: "f", Msg: "e"})
	rep.Sort()
	if rep.Diags[0].Severity != Error {
		t.Error("sort must put errors first")
	}
	text := rep.String()
	if !strings.Contains(text, "lint: 1 error(s), 1 warning(s), 0 info") {
		t.Errorf("summary line missing:\n%s", text)
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"errors": 1`, `"severity": "error"`, `"check": "frame"`} {
		if !strings.Contains(string(js), want) {
			t.Errorf("JSON missing %s:\n%s", want, js)
		}
	}
}
