package analysis

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
)

// staleForeignFunc builds a function whose operands include values the
// slot env must read as absent: removed, a value that no block holds
// any more; foreign, a value of another function. With relayout the
// function is laid out part-way through, so both carry slot numbers that
// collide with slots of the function's own values: removed keeps the slot
// the next re-layout hands to zero, and foreign's slot in its own function
// equals zero's too. The function then gains values (late, lateRef) after
// that layout, as between optimization passes. Without relayout no
// intermediate layout happens, so the checks see a freshly laid-out
// function where removed and foreign have no slot at all.
func staleForeignFunc(relayout bool) *ir.Func {
	m, f, entry := mkFunc("f")
	esp := f.NewParam(isa.ESP, "esp")
	a := alloca(f, entry, "a", -16, 16)
	removed := konst(f, entry, 4)
	zero := konst(f, entry, 0)

	g := m.NewFunc("g", 0x2000)
	gb := g.NewBlock(0)
	konst(g, gb, 7)
	konst(g, gb, 8)
	foreign := konst(g, gb, 0)
	gb.Append(g.NewValue(ir.OpRet, foreign))
	if relayout {
		f.EnsureLayout()
		g.EnsureLayout()
	}
	entry.Insts = entry.Insts[:len(entry.Insts)-2]
	entry.Append(zero)
	if relayout {
		f.EnsureLayout()
	}

	for _, off := range []*ir.Value{removed, foreign, zero} {
		addr := f.NewValue(ir.OpAdd, a, off)
		entry.Append(addr)
		load(f, entry, addr).Size = 1
	}
	sub8 := f.NewValue(ir.OpSub, esp, konst(f, entry, 8))
	entry.Append(sub8)
	store(f, entry, sub8, zero)
	thenB, elseB, exit := diamond(f, entry)
	entry.Append(f.NewValue(ir.OpBr, zero))
	thenB.Append(f.NewValue(ir.OpJmp))
	elseB.Append(f.NewValue(ir.OpJmp))
	// The removed operand is bottom on its edge, so the phi keeps sub8's
	// height and bounds.
	phi := f.NewValue(ir.OpPhi, sub8, removed)
	exit.AddPhi(phi)
	load(f, exit, phi)
	if relayout {
		f.EnsureLayout()
	}

	late := f.NewValue(ir.OpSub, esp, konst(f, exit, 12))
	exit.Append(late)
	lateRef := f.NewValue(ir.OpAdd, a, konst(f, exit, 12))
	exit.Append(lateRef)
	load(f, exit, late)
	load(f, exit, lateRef)
	exit.Append(f.NewValue(ir.OpRet, zero))
	return f
}

// lintFacts renders everything CheckBounds and Heights conclude about f.
func lintFacts(f *ir.Func) string {
	var rep Report
	st := CheckBounds(f, &rep)
	facts := Heights(f)
	known := make([]*ir.Value, 0, len(facts.Known))
	for v := range facts.Known {
		known = append(known, v)
	}
	sort.Slice(known, func(i, j int) bool { return known[i].ID < known[j].ID })
	var b strings.Builder
	fmt.Fprintf(&b, "bounds %+v\n%s", st, rep.String())
	for _, v := range known {
		fmt.Fprintf(&b, "v%d:%d ", v.ID, facts.Known[v])
	}
	fmt.Fprintf(&b, "\n%+v\n", facts.Refs)
	return b.String()
}

// TestEnvStaleAndForeignValues checks that the slot-indexed env gives a
// function with a stale layout and colliding foreign slots exactly the
// facts of a freshly laid-out copy: removed and foreign read as absent
// (their accesses unprovable, the phi's removed operand bottom), and the
// late values are analyzed like any other.
func TestEnvStaleAndForeignValues(t *testing.T) {
	stale := staleForeignFunc(true)
	if stale.LayoutOK() {
		t.Fatal("layout should be stale after adding values")
	}
	got := lintFacts(stale)
	want := lintFacts(staleForeignFunc(false))
	if got != want {
		t.Fatalf("stale layout facts differ from a fresh layout's:\n%s\nwant:\n%s", got, want)
	}
	// The fresh copy's facts: the accesses at a+zero and a+12 are proven,
	// the ones at a+removed and a+foreign are not, and the three esp-based
	// accesses are not stack-object accesses; esp, sub8, the phi and late
	// are known heights, and those three accesses are remembered.
	for _, s := range []string{
		"bounds {Proven:2 Unproven:2 Violations:0 Outside:3}",
		"v0:0 v11:-8 v16:-8 v19:-12 ",
		"{Off:-8 Size:4 Loc:f:b0:i10} {Off:-8 Size:4 Loc:f:b3:i0} {Off:-12 Size:4 Loc:f:b3:i5}",
	} {
		if !strings.Contains(want, s) {
			t.Errorf("fresh facts lack %q:\n%s", s, want)
		}
	}
}
