package tracer

// The coverage differential: Run derives Executed from the control-transfer
// stream while the emulator keeps superblock dispatch. These tests compare
// every field of the resulting trace with a reference trace built by a
// per-instruction Step loop that records m.PC() before each step.

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"testing"

	"wytiwyg/internal/asm"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/codegen"
	"wytiwyg/internal/codegen/irgen"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/obj"
)

// stepwiseTrace is the reference: one input traced instruction by
// instruction, with the same transfer hook Run uses.
func stepwiseTrace(t *testing.T, img *obj.Image, input machine.Input) *Trace {
	t.Helper()
	ref := New(img)
	m, err := machine.New(img, input, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	m.Hook = ref.addTransfer
	for !m.Halted() {
		ref.Executed[m.PC()] = true
		if err := m.Step(); err != nil {
			t.Fatalf("reference step at 0x%x: %v", m.PC(), err)
		}
	}
	ref.Inputs++
	return ref
}

// sortedAddrs lists a set's members in ascending order.
func sortedAddrs(s map[uint32]bool) []uint32 {
	out := make([]uint32, 0, len(s))
	for a := range s {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// coverageDifferential traces img on input with Run and requires the
// result to equal the stepwise reference field by field.
func coverageDifferential(t *testing.T, img *obj.Image, input machine.Input) {
	t.Helper()
	ref := stepwiseTrace(t, img, input)
	got := New(img)
	if _, err := got.Run(input, io.Discard); err != nil {
		t.Fatal(err)
	}
	for a := range ref.Executed {
		if !got.Executed[a] {
			t.Fatalf("executed 0x%x missing from the trace (%d of %d covered)",
				a, len(got.Executed), len(ref.Executed))
		}
	}
	for a := range got.Executed {
		if !ref.Executed[a] {
			t.Fatalf("0x%x marked executed but never ran", a)
		}
	}
	if !reflect.DeepEqual(got.CallTargets, ref.CallTargets) {
		t.Errorf("CallTargets differ:\n got: %v\n ref: %v", got.CallTargets, ref.CallTargets)
	}
	if !reflect.DeepEqual(got.JumpTargets, ref.JumpTargets) {
		t.Errorf("JumpTargets differ:\n got: %v\n ref: %v", got.JumpTargets, ref.JumpTargets)
	}
	if !reflect.DeepEqual(got.ExtCalls, ref.ExtCalls) {
		t.Errorf("ExtCalls differ:\n got: %v\n ref: %v", got.ExtCalls, ref.ExtCalls)
	}
	if !reflect.DeepEqual(sortedAddrs(got.RetSites), sortedAddrs(ref.RetSites)) {
		t.Errorf("RetSites differ:\n got: %x\n ref: %x", sortedAddrs(got.RetSites), sortedAddrs(ref.RetSites))
	}
	if got.Inputs != ref.Inputs {
		t.Errorf("Inputs = %d, want %d", got.Inputs, ref.Inputs)
	}
}

// haltShapes end a run in each way the machine can halt, after a loop, a
// call and a non-exiting external call: a HALT instruction, the exit
// syscall, and a call to the exit external (whose transfer already closed
// the last segment). The "first" shapes halt at the entry instruction.
var haltShapes = []struct{ name, src string }{
	{"halt", `
main:
    movi ecx, 3
.loop:
    call bump
    subi ecx, 1
    cmpi ecx, 0
    jne .loop
    push eax
    call @putint
    addi esp, 4
    movi eax, 7
    halt
bump:
    addi eax, 2
    ret
`},
	{"sys-exit", `
main:
    movi ecx, 2
.loop:
    call bump
    subi ecx, 1
    cmpi ecx, 0
    jne .loop
    movi eax, 5
    sys 0
    halt
bump:
    addi eax, 2
    ret
`},
	{"ext-exit", `
main:
    movi ecx, 4
.loop:
    call bump
    subi ecx, 1
    cmpi ecx, 0
    jne .loop
    push eax
    call @exit
    halt
bump:
    addi eax, 2
    ret
`},
	{"halt-first", "main:\n    halt\n"},
	{"sys-exit-first", "main:\n    sys 0\n    halt\n"},
	{"ext-exit-first", "main:\n    call @exit\n    halt\n"},
}

// TestTraceCoverageHaltShapes runs the differential on every halt shape.
func TestTraceCoverageHaltShapes(t *testing.T) {
	for _, c := range haltShapes {
		t.Run(c.name, func(t *testing.T) {
			img, err := asm.Assemble(c.name, c.src, "")
			if err != nil {
				t.Fatal(err)
			}
			coverageDifferential(t, img, machine.Input{})
		})
	}
}

// TestTraceCoverageCorpus runs the differential over every corpus program
// under every compiler profile (the first profile only under -short).
func TestTraceCoverageCorpus(t *testing.T) {
	profiles := []gen.Profile{gen.GCC12O3, gen.GCC12O0, gen.Clang16O3, gen.GCC44O3}
	if testing.Short() {
		profiles = profiles[:1]
	}
	for _, p := range progs.All {
		for _, prof := range profiles {
			p, prof := p, prof
			t.Run(p.Name+"/"+prof.Name, func(t *testing.T) {
				t.Parallel()
				img, err := gen.Build(p.Src, prof, p.Name)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				coverageDifferential(t, img, p.Train)
			})
		}
	}
}

// TestTraceCoverageRandomIR runs the differential over the random-IR
// programs the superblock differential compiles: shapes the mini-C
// frontend never emits.
func TestTraceCoverageRandomIR(t *testing.T) {
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
			coverageDifferential(t, img, machine.Input{})
		})
	}
}
