package opt_test

import (
	"fmt"
	"testing"

	"wytiwyg/internal/bench"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/opt"
	"wytiwyg/internal/vsa"
)

// vsaOracle is the factory the real pipeline consumers use.
func vsaOracle(f *ir.Func) opt.AliasOracle { return vsa.NewOracle(f) }

func valloca(f *ir.Func, b *ir.Block, name string, size uint32, off int32) *ir.Value {
	a := f.NewValue(ir.OpAlloca)
	a.AllocSize = size
	a.Name = name
	a.Const = off
	b.Append(a)
	return a
}

func vedge(from, to *ir.Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func store4(f *ir.Func, b *ir.Block, addr, val *ir.Value) *ir.Value {
	s := f.NewValue(ir.OpStore, addr, val)
	s.Size = 4
	b.Append(s)
	return s
}

func load4(f *ir.Func, b *ir.Block, addr *ir.Value) *ir.Value {
	l := f.NewValue(ir.OpLoad, addr)
	l.Size = 4
	b.Append(l)
	return l
}

// pointerTable builds the pattern neither mem2reg nor block-local MemOpt
// can crack: an 8-byte table slot holding two addresses (the offset
// arithmetic defeats mem2reg's direct-use rule), filled in the entry block
// and dereferenced behind a branch (defeating block-local forwarding).
//
//	entry: tab[0] = &a; tab[4] = &b; br c
//	B1:    q1 = tab[0]; *q1 = 7
//	B2:    q2 = tab[4]; *q2 = 9
//	B3:    return *a + *b
func pointerTable() (*ir.Module, *ir.Func) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", 0x1000)
	f.NumRet = 1
	entry := f.NewBlock(0)
	m.Entry = f
	b1 := f.NewBlock(0)
	b2 := f.NewBlock(0)
	b3 := f.NewBlock(0)
	vedge(entry, b1)
	vedge(entry, b2)
	vedge(b1, b3)
	vedge(b2, b3)

	c := f.NewParam(isa.EAX, "c")
	a := valloca(f, entry, "a", 4, -16)
	bb := valloca(f, entry, "b", 4, -12)
	tab := valloca(f, entry, "tab", 8, -8)
	store4(f, entry, tab, a)
	four := konst(f, entry, 4)
	tab4 := f.NewValue(ir.OpAdd, tab, four)
	entry.Append(tab4)
	store4(f, entry, tab4, bb)
	entry.Append(f.NewValue(ir.OpBr, c))

	q1 := load4(f, b1, tab)
	store4(f, b1, q1, konst(f, b1, 7))
	b1.Append(f.NewValue(ir.OpJmp))

	q2 := load4(f, b2, tab4)
	store4(f, b2, q2, konst(f, b2, 9))
	b2.Append(f.NewValue(ir.OpJmp))

	x := load4(f, b3, a)
	y := load4(f, b3, bb)
	s := f.NewValue(ir.OpAdd, x, y)
	b3.Append(s)
	b3.Append(f.NewValue(ir.OpRet, s))
	return m, f
}

func countPromoted(p *layout.Program) int {
	n := 0
	for _, name := range p.FuncNames() {
		n += len(p.Frame(name).Vars)
	}
	return n
}

func countLoads(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			if v.Op == ir.OpLoad {
				n++
			}
		}
	}
	return n
}

// TestPipelineOraclePromotesMore is the acceptance gate for the VSA
// integration: on the pointer-table pattern the oracle-equipped pipeline
// must promote strictly more stack slots than the baseline, whose escape
// analysis can never untangle the stored addresses.
func TestPipelineOraclePromotesMore(t *testing.T) {
	mBase, fBase := pointerTable()
	base := opt.PipelineWith(mBase, opt.PipelineOpts{})
	mOrc, fOrc := pointerTable()
	withOrc := opt.PipelineWith(mOrc, opt.PipelineOpts{Oracle: vsaOracle})

	nb, no := countPromoted(base), countPromoted(withOrc)
	if no <= nb {
		t.Errorf("oracle promoted %d slots, baseline %d; want strictly more", no, nb)
	}
	if nb != 0 {
		t.Errorf("baseline unexpectedly promoted %d slots", nb)
	}
	// Every load should be resolved or forwarded away with the oracle; the
	// baseline cannot remove the indirect ones.
	if n := countLoads(fOrc); n != 0 {
		t.Errorf("oracle pipeline left %d loads", n)
	}
	if n := countLoads(fBase); n == 0 {
		t.Error("baseline unexpectedly removed every load")
	}
}

// TestResolveAddrsRewritesLoadedPointer checks the rewrite itself: loaded
// table entries become the allocas they provably hold.
func TestResolveAddrsRewritesLoadedPointer(t *testing.T) {
	_, f := pointerTable()
	n := opt.ResolveAddrs(f, vsaOracle(f))
	if n == 0 {
		t.Fatal("ResolveAddrs rewrote nothing")
	}
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			if v.Op == ir.OpStore && v.Args[0].Op == ir.OpLoad {
				t.Errorf("store still addresses through a loaded pointer: %v", v)
			}
		}
	}
}

// TestForwardStoresThroughLoadedPointer: a store through a resolved
// pointer forwards to a later direct load of the same cell, across an
// intervening store the oracle separates.
func TestForwardStoresThroughLoadedPointer(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", 0x1000)
	f.NumRet = 1
	b := f.NewBlock(0)
	m.Entry = f
	a := valloca(f, b, "a", 4, -12)
	c := valloca(f, b, "c", 4, -8)
	p := valloca(f, b, "p", 4, -4)
	store4(f, b, p, a)
	q := load4(f, b, p)
	seven := konst(f, b, 7)
	store4(f, b, q, seven) // *q = 7 (into a)
	store4(f, b, c, konst(f, b, 1))
	x := load4(f, b, a) // must see 7 through q
	ret := f.NewValue(ir.OpRet, x)
	b.Append(ret)

	if n := opt.ForwardStores(f, vsaOracle(f)); n == 0 {
		t.Fatal("ForwardStores forwarded nothing")
	}
	if ret.Args[0] != seven {
		t.Errorf("load not forwarded: ret %v, want the stored 7", ret.Args[0])
	}
}

// TestMemOptOracleSurvivesIndirectStore: with the oracle, a forwarded
// value survives a store through a phi-carried pointer proven to target a
// different slot; without it, the syntactically-unknown store kills the
// entry because the slot's address escaped.
func TestMemOptOracleSurvivesIndirectStore(t *testing.T) {
	build := func() (*ir.Func, *ir.Value, *ir.Value) {
		m := ir.NewModule("t")
		f := m.NewFunc("f", 0x1000)
		f.NumRet = 1
		entry := f.NewBlock(0)
		m.Entry = f
		b2 := f.NewBlock(0)
		vedge(entry, b2)
		a := valloca(f, entry, "a", 4, -12)
		bb := valloca(f, entry, "b", 4, -8)
		p := valloca(f, entry, "p", 4, -4)
		store4(f, entry, p, a) // a escapes
		entry.Append(f.NewValue(ir.OpJmp))
		// q arrives through a phi: invisible to the syntactic resolver.
		q := f.NewValue(ir.OpPhi, bb)
		b2.AddPhi(q)
		five := konst(f, b2, 5)
		store4(f, b2, a, five)
		store4(f, b2, q, konst(f, b2, 9))
		x := load4(f, b2, a)
		ret := f.NewValue(ir.OpRet, x)
		b2.Append(ret)
		return f, five, ret
	}

	f, _, ret := build()
	opt.MemOpt(f)
	if ret.Args[0].Op != ir.OpLoad {
		t.Errorf("baseline MemOpt forwarded across an unknown store: ret %v", ret.Args[0])
	}
	f2, five2, ret2 := build()
	opt.MemOptWith(f2, vsaOracle(f2))
	if ret2.Args[0] != five2 {
		t.Errorf("oracle MemOpt did not forward: ret %v, want the stored 5", ret2.Args[0])
	}
}

// lateQuery builds a function whose decisive oracle query is about a
// value no oracle built in the first round knows: slot s holds &a or &b
// depending on a branch, but a dead derived address keeps mem2reg off it
// until fold and DCE have run, so its phi only appears in round two —
// together with the straight-line block (merged by SimplifyCFG in round
// one) in which forwarding c's store past the store through that phi
// needs the oracle, since c escapes.
//
//	entry: sink(c); t = s+0 (dead); br cond
//	B1:    *s = &a        B2: *s = &b
//	B3:    p = *s; *c = 1; jmp B4
//	B4:    *p = 5; return *c
func lateQuery() *ir.Module {
	m := ir.NewModule("t")
	f := m.NewFunc("f", 0x1000)
	f.NumRet = 1
	entry := f.NewBlock(0)
	m.Entry = f
	b1, b2, b3, b4 := f.NewBlock(0), f.NewBlock(0), f.NewBlock(0), f.NewBlock(0)
	vedge(entry, b1)
	vedge(entry, b2)
	vedge(b1, b3)
	vedge(b2, b3)
	vedge(b3, b4)

	cond := f.NewParam(isa.EAX, "cond")
	a := valloca(f, entry, "a", 4, -16)
	bb := valloca(f, entry, "b", 4, -12)
	c := valloca(f, entry, "c", 4, -8)
	s := valloca(f, entry, "s", 4, -4)
	sink := f.NewValue(ir.OpCallExt, c)
	sink.Sym = "sink"
	entry.Append(sink)
	entry.Append(f.NewValue(ir.OpAdd, s, konst(f, entry, 0)))
	entry.Append(f.NewValue(ir.OpBr, cond))

	store4(f, b1, s, a)
	b1.Append(f.NewValue(ir.OpJmp))
	store4(f, b2, s, bb)
	b2.Append(f.NewValue(ir.OpJmp))

	p := load4(f, b3, s)
	store4(f, b3, c, konst(f, b3, 1))
	b3.Append(f.NewValue(ir.OpJmp))

	store4(f, b4, p, konst(f, b4, 5))
	x := load4(f, b4, c)
	b4.Append(f.NewValue(ir.OpRet, x))
	return m
}

// checkedOracles is an oracle factory for the reuse soundness test: each
// oracle it hands out answers every query twice — from itself (possibly
// reused by the optimizer across passes) and from a fresh fixpoint over
// the function's IR as it is at query time — and reports any difference.
type checkedOracles struct {
	t     *testing.T
	name  string
	calls int
	// fresh memoizes the fresh oracle per printed function, so repeated
	// queries against unchanged IR share one fixpoint.
	fresh map[string]*vsa.Oracle
	diffs int
}

func (c *checkedOracles) factory(f *ir.Func) opt.AliasOracle {
	c.calls++
	return &checkedOracle{c: c, f: f, orc: vsa.NewOracle(f)}
}

func (c *checkedOracles) current(f *ir.Func) *vsa.Oracle {
	key := f.String()
	o, ok := c.fresh[key]
	if !ok {
		o = vsa.NewOracle(f)
		c.fresh[key] = o
	}
	return o
}

func (c *checkedOracles) mismatch(f *ir.Func, query string, got, want any) {
	c.diffs++
	if c.diffs <= 5 {
		c.t.Errorf("%s: %s: %s = %v from the kept oracle, %v from a fresh one",
			c.name, f.Name, query, got, want)
	}
}

type checkedOracle struct {
	c   *checkedOracles
	f   *ir.Func
	orc *vsa.Oracle
}

func (o *checkedOracle) MustNotAlias(a *ir.Value, szA int64, b *ir.Value, szB int64) bool {
	got := o.orc.MustNotAlias(a, szA, b, szB)
	if want := o.c.current(o.f).MustNotAlias(a, szA, b, szB); got != want {
		o.c.mismatch(o.f, fmt.Sprintf("MustNotAlias(%s, %s)", a, b), got, want)
	}
	return got
}

func (o *checkedOracle) PointsToFrameSlot(p *ir.Value) (*ir.Value, int64, bool) {
	a, off, ok := o.orc.PointsToFrameSlot(p)
	wa, woff, wok := o.c.current(o.f).PointsToFrameSlot(p)
	if a != wa || off != woff || ok != wok {
		o.c.mismatch(o.f, fmt.Sprintf("PointsToFrameSlot(%s)", p),
			fmt.Sprint(a, off, ok), fmt.Sprint(wa, woff, wok))
	}
	return a, off, ok
}

func (o *checkedOracle) MayTouchSlot(p *ir.Value, sz int64, alloca *ir.Value, off, width int64) bool {
	got := o.orc.MayTouchSlot(p, sz, alloca, off, width)
	if want := o.c.current(o.f).MayTouchSlot(p, sz, alloca, off, width); got != want {
		o.c.mismatch(o.f, fmt.Sprintf("MayTouchSlot(%s, %s+%d)", p, alloca, off), got, want)
	}
	return got
}

// optimizeChecked optimizes m with the checking factory and returns how
// many oracles were built and how many the old schedule — two per
// function per round — would have built.
func optimizeChecked(t *testing.T, name string, m *ir.Module, typed func(*ir.Func) opt.TypedInfo) (calls, old int) {
	t.Helper()
	c := &checkedOracles{t: t, name: name, fresh: map[string]*vsa.Oracle{}}
	rounds := 0
	_, err := opt.PipelineWithDebug(m, opt.PipelineOpts{Oracle: c.factory, Typed: typed},
		func(pass string) error {
			if pass == "local" {
				rounds++
			}
			return nil
		})
	if err != nil {
		t.Fatalf("%s: optimize: %v", name, err)
	}
	return c.calls, 2 * len(m.Funcs) * rounds
}

// refineForReuse refines one binary under -vsa -types and optimizes it
// with the checking factory (see optimizeChecked).
func refineForReuse(t *testing.T, name string, img *obj.Image, inputs []machine.Input) (calls, old int) {
	t.Helper()
	p, err := core.LiftBinaryOpts(img, inputs, core.Options{Jobs: 1, VSA: true, Types: true})
	if err != nil {
		t.Fatalf("%s: lift: %v", name, err)
	}
	if err := p.Refine(); err != nil {
		t.Fatalf("%s: refine: %v", name, err)
	}
	return optimizeChecked(t, name, p.Mod, p.TypedInfo())
}

// TestOracleReuseSound pins the optimizer's oracle cache: an oracle kept
// across passes must answer every query exactly as a fresh fixpoint over
// the current IR would — on the pointer-table pattern, where the oracle's
// rewrites change the IR round after round, on the benchmark corpus and on
// the random programs of the VSA differential — and reuse must save
// factory calls against the two per function per round the optimizer used
// to make.
func TestOracleReuseSound(t *testing.T) {
	corpus := progs.All
	seeds := int64(12)
	if testing.Short() {
		corpus, seeds = corpus[:3], 4
	}
	m, _ := pointerTable()
	calls, old := optimizeChecked(t, "pointer table", m, nil)
	late := lateQuery()
	c, o := optimizeChecked(t, "late query", late, nil)
	calls, old = calls+c, old+o
	if n := countLoads(late.Funcs[0]); n != 0 {
		t.Errorf("late query: %d load(s) left, want c's load forwarded:\n%s", n, late.Funcs[0])
	}
	for _, p := range corpus {
		p := bench.Scaled(p, 3)
		img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
		if err != nil {
			t.Fatalf("%s: build: %v", p.Name, err)
		}
		c, o := refineForReuse(t, p.Name, img, p.Inputs())
		calls, old = calls+c, old+o
	}
	for seed := int64(1); seed <= seeds; seed++ {
		prof := gen.Profiles[int(seed)%len(gen.Profiles)]
		img, err := gen.Build(bench.RandomProgram(seed), prof, "vsafuzz")
		if err != nil {
			t.Fatalf("seed %d: compile (%s): %v", seed, prof.Name, err)
		}
		c, o := refineForReuse(t, fmt.Sprintf("seed %d", seed), img, nil)
		calls, old = calls+c, old+o
	}
	if calls >= old {
		t.Errorf("optimizer built %d oracles, no fewer than the %d of two per function per round", calls, old)
	}
	t.Logf("oracles built: %d (two per function per round: %d)", calls, old)
}
