package core_test

import (
	"strings"
	"testing"

	"wytiwyg/internal/asm"
	"wytiwyg/internal/core"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/machine"
)

// A binary that faults during tracing surfaces the fault as a lift error:
// WYTIWYG can only lift what it can execute.
func TestLiftBinaryTracingFault(t *testing.T) {
	src := `
main:
    movi eax, 0
    load4 ecx, [eax]     ; null deref
    halt
`
	img, err := asm.Assemble("crash", src, "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.LiftBinary(img, nil)
	if err == nil || !strings.Contains(err.Error(), "tracing") {
		t.Errorf("err = %v, want tracing error", err)
	}
}

// Inputs that diverge before reaching shared code still merge into one
// CFG; refinement must observe both paths.
func TestLiftBinaryMultipleInputs(t *testing.T) {
	src := `
main:
    push ebp
    mov ebp, esp
    call @input_int
    cmpi eax, 5
    jlt .small
    muli eax, 2
    jmp .out
.small:
    addi eax, 100
.out:
    pop ebp
    push eax
    call @exit
    halt
`
	img, err := asm.Assemble("branchy", src, "")
	if err != nil {
		t.Fatal(err)
	}
	inputs := []machine.Input{
		{Ints: []int32{3}},  // takes .small
		{Ints: []int32{50}}, // takes the multiply path
	}
	p, err := core.LiftBinary(img, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Refine(); err != nil {
		t.Fatal(err)
	}
	// Both sides of the branch must be present (no traps on either path).
	for i, want := range []int32{103, 100} {
		r, err := irexec.Run(p.Mod, inputs[i], nil, nil)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		if r.ExitCode != want {
			t.Errorf("input %d: exit = %d, want %d", i, r.ExitCode, want)
		}
	}
}

// The varargs stage applies the call-site counts RefineRegSave's runs
// observed; called first, it has none and must say so instead of failing
// every raw call site as unobserved.
func TestRefineVarArgsNeedsRegSave(t *testing.T) {
	img, err := asm.Assemble("printer", `
main:
    pushi 7
    call @putint
    addi esp, 4
    pushi 0
    call @exit
    halt
`, "")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.LiftBinary(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RefineVarArgs(); err == nil || !strings.Contains(err.Error(), "RefineRegSave") {
		t.Errorf("RefineVarArgs before RefineRegSave: err = %v, want an ordering error", err)
	}
	if err := p.RefineRegSave(); err != nil {
		t.Fatal(err)
	}
	if err := p.RefineVarArgs(); err != nil {
		t.Errorf("RefineVarArgs after RefineRegSave: %v", err)
	}
}
