package machine_test

// Differential tests for superblock dispatch (superblock.go): every
// observable of an execution — final registers, pc, Steps, Cycles, total
// cycles, exit code, program output, the memory digest, and the exact
// Transfer/InstrHook event streams — must be identical whether a
// program runs through Run's superblock path, Run with NoSuperblocks set,
// or a manual Step loop, with any combination of hooks attached. The
// dispatch switch exists in two deliberate copies (see superblock.go);
// these tests are the guard that keeps the copies from drifting.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"wytiwyg/internal/asm"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/codegen"
	"wytiwyg/internal/codegen/irgen"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/obj"
)

// runState is everything observable about one finished (or faulted)
// execution.
type runState struct {
	errStr    string // "" when the run halted cleanly
	regs      [isa.NumRegs]uint32
	pc        uint32
	steps     uint64
	cycles    uint64
	total     uint64
	halted    bool
	exit      int32
	digest    [sha256.Size]byte
	out       string
	transfers []machine.Transfer
	pcs       []uint32 // InstrHook stream; nil when the hook was off
}

// hookSet selects which observers a run attaches.
type hookSet struct {
	transfer bool
	instr    bool
}

func (h hookSet) String() string {
	return fmt.Sprintf("transfer=%v instr=%v", h.transfer, h.instr)
}

// runImage executes img on input in the given mode and returns the full
// observable state. maxSteps overrides the default budget when non-zero.
func runImage(t *testing.T, img *obj.Image, input machine.Input, noSuper bool, hooks hookSet, maxSteps uint64) runState {
	t.Helper()
	var out bytes.Buffer
	m, err := machine.New(img, input, &out)
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	m.NoSuperblocks = noSuper
	if maxSteps != 0 {
		m.MaxSteps = maxSteps
	}
	var st runState
	if hooks.transfer {
		m.Hook = func(tr machine.Transfer) { st.transfers = append(st.transfers, tr) }
	}
	if hooks.instr {
		st.pcs = []uint32{}
		m.InstrHook = func(pc uint32) { st.pcs = append(st.pcs, pc) }
	}
	if err := m.Run(); err != nil {
		st.errStr = err.Error()
	}
	st.regs = m.Regs
	st.pc = m.PC()
	st.steps = m.Steps
	st.cycles = m.Cycles
	st.total = m.TotalCycles()
	st.halted = m.Halted()
	st.exit = m.ExitCode()
	st.digest = m.Mem.Digest()
	st.out = out.String()
	return st
}

// diffStates fails the test on the first observable that differs between a
// reference run and a candidate run. Event streams are compared only when
// both runs recorded them.
func diffStates(t *testing.T, label string, ref, got runState) {
	t.Helper()
	if ref.errStr != got.errStr {
		t.Fatalf("%s: error mismatch:\n ref: %q\n got: %q", label, ref.errStr, got.errStr)
	}
	if ref.regs != got.regs {
		t.Errorf("%s: registers differ:\n ref: %v\n got: %v", label, ref.regs, got.regs)
	}
	if ref.pc != got.pc {
		t.Errorf("%s: pc differs: ref=0x%x got=0x%x", label, ref.pc, got.pc)
	}
	if ref.steps != got.steps {
		t.Errorf("%s: Steps differ: ref=%d got=%d", label, ref.steps, got.steps)
	}
	if ref.cycles != got.cycles {
		t.Errorf("%s: Cycles differ: ref=%d got=%d", label, ref.cycles, got.cycles)
	}
	if ref.total != got.total {
		t.Errorf("%s: TotalCycles differ: ref=%d got=%d", label, ref.total, got.total)
	}
	if ref.halted != got.halted {
		t.Errorf("%s: halted differs: ref=%v got=%v", label, ref.halted, got.halted)
	}
	if ref.exit != got.exit {
		t.Errorf("%s: exit code differs: ref=%d got=%d", label, ref.exit, got.exit)
	}
	if ref.digest != got.digest {
		t.Errorf("%s: memory digests differ", label)
	}
	if ref.out != got.out {
		t.Errorf("%s: program output differs:\n ref: %q\n got: %q", label, ref.out, got.out)
	}
	if ref.transfers != nil && got.transfers != nil {
		if len(ref.transfers) != len(got.transfers) {
			t.Fatalf("%s: transfer counts differ: ref=%d got=%d", label, len(ref.transfers), len(got.transfers))
		}
		for i := range ref.transfers {
			if ref.transfers[i] != got.transfers[i] {
				t.Fatalf("%s: transfer %d differs:\n ref: %+v\n got: %+v", label, i, ref.transfers[i], got.transfers[i])
			}
		}
	}
	if ref.pcs != nil && got.pcs != nil {
		if len(ref.pcs) != len(got.pcs) {
			t.Fatalf("%s: InstrHook stream lengths differ: ref=%d got=%d", label, len(ref.pcs), len(got.pcs))
		}
		for i := range ref.pcs {
			if ref.pcs[i] != got.pcs[i] {
				t.Fatalf("%s: InstrHook pc %d differs: ref=0x%x got=0x%x", label, i, ref.pcs[i], got.pcs[i])
			}
		}
	}
}

// differential runs img on input through every dispatch mode × hook
// configuration and requires all of them to observe the same execution.
func differential(t *testing.T, img *obj.Image, input machine.Input) {
	t.Helper()
	allHooks := hookSet{transfer: true, instr: true}
	// The reference: per-instruction dispatch with every observer attached.
	ref := runImage(t, img, input, true, allHooks, 0)
	if ref.instrCount() != ref.steps {
		t.Errorf("reference: InstrHook fired %d times for %d steps", ref.instrCount(), ref.steps)
	}
	configs := []struct {
		noSuper bool
		hooks   hookSet
	}{
		{false, hookSet{}},               // superblock fast path, no observers
		{false, hookSet{transfer: true}}, // superblock + transfer hook
		{false, allHooks},                // InstrHook forces the stepwise fallback
		{true, hookSet{}},                // per-instruction, no observers
		{true, hookSet{instr: true}},     // per-instruction + InstrHook
	}
	for _, c := range configs {
		label := fmt.Sprintf("noSuper=%v %s", c.noSuper, c.hooks)
		got := runImage(t, img, input, c.noSuper, c.hooks, 0)
		diffStates(t, label, ref, got)
		if got.pcs != nil && uint64(len(got.pcs)) != got.steps {
			t.Errorf("%s: InstrHook fired %d times for %d steps", label, len(got.pcs), got.steps)
		}
	}
}

func (s runState) instrCount() uint64 { return uint64(len(s.pcs)) }

// TestSuperblockDifferentialCorpus runs every bench-corpus program
// (compiled with the full mini-C pipeline) under superblock and
// per-instruction dispatch and requires observational identity.
func TestSuperblockDifferentialCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus differential is minutes-scale under -race; ci.sh runs it in a dedicated step")
	}
	for _, p := range progs.All {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
			if err != nil {
				t.Fatalf("build %s: %v", p.Name, err)
			}
			differential(t, img, p.Train)
		})
	}
}

// TestSuperblockDifferentialRandomIR feeds the dispatcher adversarial
// instruction mixes: random well-defined IR compiled straight through
// codegen, shapes the mini-C frontend never emits.
func TestSuperblockDifferentialRandomIR(t *testing.T) {
	if testing.Short() {
		t.Skip("random-IR differential skips under -short; ci.sh runs it in a dedicated step")
	}
	for seed := int64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			a := int32(seed*11 - 200)
			b := int32(seed*-5 + 137)
			img, err := codegen.Compile(irgen.Build(seed, a, b), "rnd")
			if err != nil {
				t.Fatalf("compile seed %d: %v", seed, err)
			}
			differential(t, img, machine.Input{})
		})
	}
}

// faultMid is a program that faults with a null-page store in the middle of
// a long straight-line run: several instructions execute before the fault
// and two more sit after it in the same superblock, so partial-batch Steps
// and Cycles accounting is on the line.
const faultMid = `
main:
    addi eax, 1
    addi eax, 2
    movi ebx, 16
    addi eax, 4
    store4 [ebx], eax
    addi eax, 8
    addi eax, 16
    halt
`

// faultDiv divides by zero mid-run.
const faultDiv = `
main:
    movi eax, 100
    addi eax, 1
    movi ebx, 0
    div eax, ebx
    addi eax, 1
    halt
`

// faultPop underflows into unmapped-is-fine territory but then loads from
// the null page via a POP with ESP pointing below 0x1000.
const faultPop = `
main:
    movi esp, 16
    addi eax, 1
    pop ecx
    halt
`

// TestSuperblockFaultDifferential checks that faults raised from inside a
// superblock leave the machine in exactly the state per-instruction
// dispatch leaves it in: same error string, same pc (the faulting
// instruction), same partial Steps/Cycles, same registers.
func TestSuperblockFaultDifferential(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"null-store-mid-run", faultMid},
		{"div-by-zero", faultDiv},
		{"pop-null-page", faultPop},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			img, err := asm.Assemble(c.name, c.src, "")
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			ref := runImage(t, img, machine.Input{}, true, hookSet{}, 0)
			if ref.errStr == "" {
				t.Fatalf("expected the reference run to fault")
			}
			got := runImage(t, img, machine.Input{}, false, hookSet{}, 0)
			diffStates(t, "superblock", ref, got)
		})
	}
}

// stepLoop is the benchmark loop: an infinite straight-line body ending in
// an unconditional jump, the densest superblock the dispatcher sees.
const stepLoop = `
main:
    mov ebx, esp
    subi ebx, 64
.loop:
    addi eax, 1
    mov ecx, eax
    shli ecx, 3
    store4 [ebx], ecx
    load4 edx, [ebx]
    add edx, eax
    cmpi eax, 0
    jmp .loop
`

// TestSuperblockMaxStepsParity is the MaxSteps overshoot regression test: a
// superblock must never execute past the step budget. For every budget
// crossing a run boundary at every offset, both dispatch modes must stop
// with ErrMaxSteps after exactly MaxSteps instructions, in identical
// states.
func TestSuperblockMaxStepsParity(t *testing.T) {
	img, err := asm.Assemble("steploop", stepLoop, "")
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	for budget := uint64(1); budget <= 40; budget++ {
		ref := runImage(t, img, machine.Input{}, true, hookSet{}, budget)
		got := runImage(t, img, machine.Input{}, false, hookSet{}, budget)
		if ref.errStr != machine.ErrMaxSteps.Error() {
			t.Fatalf("budget %d: reference error = %q, want ErrMaxSteps", budget, ref.errStr)
		}
		if ref.steps != budget {
			t.Fatalf("budget %d: reference executed %d steps", budget, ref.steps)
		}
		if got.steps > budget {
			t.Fatalf("budget %d: superblock overshot the budget: %d steps", budget, got.steps)
		}
		diffStates(t, fmt.Sprintf("budget=%d", budget), ref, got)
	}
}

// TestSuperblockMaxStepsErrIs pins that the budget error from both dispatch
// paths is the ErrMaxSteps sentinel (callers re-arm budgets by matching
// it), not merely a string twin.
func TestSuperblockMaxStepsErrIs(t *testing.T) {
	img, err := asm.Assemble("steploop", stepLoop, "")
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	for _, noSuper := range []bool{false, true} {
		m, err := machine.New(img, machine.Input{}, nil)
		if err != nil {
			t.Fatalf("machine.New: %v", err)
		}
		m.NoSuperblocks = noSuper
		m.MaxSteps = 17
		if err := m.Run(); !errors.Is(err, machine.ErrMaxSteps) {
			t.Fatalf("noSuper=%v: Run = %v, want ErrMaxSteps", noSuper, err)
		}
		if m.Steps != 17 {
			t.Fatalf("noSuper=%v: Steps = %d, want 17", noSuper, m.Steps)
		}
		// The machine is resumable after a budget bump, in both modes.
		m.MaxSteps = 34
		if err := m.Run(); !errors.Is(err, machine.ErrMaxSteps) {
			t.Fatalf("noSuper=%v resume: Run = %v, want ErrMaxSteps", noSuper, err)
		}
		if m.Steps != 34 {
			t.Fatalf("noSuper=%v resume: Steps = %d, want 34", noSuper, m.Steps)
		}
	}
}

// TestStepInterleavesWithRun pins that a manual Step loop and Run agree
// even when interleaved: stepping N instructions and then calling Run must
// finish in the same state as Run alone.
func TestStepInterleavesWithRun(t *testing.T) {
	p, ok := progs.ByName("mcf")
	if !ok {
		t.Fatal("mcf not in corpus")
	}
	img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	ref := runImage(t, img, p.Train, false, hookSet{}, 0)
	var out bytes.Buffer
	m, err := machine.New(img, p.Train, &out)
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	for i := 0; i < 137 && !m.Halted(); i++ {
		if err := m.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run after stepping: %v", err)
	}
	if m.Regs != ref.regs || m.Steps != ref.steps || m.Cycles != ref.cycles {
		t.Fatalf("interleaved Step+Run diverged: regs=%v steps=%d cycles=%d, want regs=%v steps=%d cycles=%d",
			m.Regs, m.Steps, m.Cycles, ref.regs, ref.steps, ref.cycles)
	}
	if d := m.Mem.Digest(); d != ref.digest {
		t.Fatalf("interleaved Step+Run memory digest diverged")
	}
	if out.String() != ref.out {
		t.Fatalf("interleaved Step+Run output diverged: %q vs %q", out.String(), ref.out)
	}
}
