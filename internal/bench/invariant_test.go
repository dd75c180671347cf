package bench

import (
	"fmt"
	"testing"

	"wytiwyg/internal/core"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/minicc/gen"
)

// Recovered-layout invariants, checked over random programs: variables the
// symbolizer emits must be non-empty, mutually disjoint (the union-find
// coalescing guarantees each traced byte one owner) and must never claim
// the return-address slot [0,4) that separates locals from stack-passed
// arguments.
func checkFrameInvariants(t *testing.T, fn string, fr *layout.Frame) {
	t.Helper()
	retSlot := layout.Var{Name: "ret", Offset: 0, Size: 4}
	for i, v := range fr.Vars {
		if v.Size == 0 {
			t.Errorf("%s: empty variable %s", fn, v)
		}
		if v.Size > 1<<20 || v.Offset < -(1<<20) || v.Offset > 1<<20 {
			t.Errorf("%s: implausible variable %s", fn, v)
		}
		if v.Overlaps(retSlot) {
			t.Errorf("%s: variable %s overlaps the return-address slot", fn, v)
		}
		for _, o := range fr.Vars[i+1:] {
			if v.Overlaps(o) {
				t.Errorf("%s: overlapping variables %s and %s", fn, v, o)
			}
		}
	}
}

func TestRandomProgramFrameInvariants(t *testing.T) {
	last := int64(112)
	if testing.Short() {
		last = 104
	}
	for seed := int64(101); seed <= last; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			src := RandomProgram(seed)
			prof := gen.Profiles[int(seed)%len(gen.Profiles)]
			img, err := gen.Build(src, prof, "inv")
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			p, err := core.LiftBinary(img, nil)
			if err != nil {
				t.Fatalf("lift: %v", err)
			}
			if err := p.Refine(); err != nil {
				t.Fatalf("refine: %v", err)
			}
			if p.Recovered == nil || len(p.Recovered.Frames) == 0 {
				t.Fatal("no recovered layout")
			}
			for fn, fr := range p.Recovered.Frames {
				checkFrameInvariants(t, fn, fr)
			}
		})
	}
}

// The compiler's ground-truth side-table must satisfy the same geometric
// invariants — the accuracy metric is only meaningful against a
// well-formed reference.
func TestGroundTruthFrameInvariants(t *testing.T) {
	for seed := int64(201); seed <= 208; seed++ {
		src := RandomProgram(seed)
		for _, prof := range gen.Profiles {
			img, err := gen.Build(src, prof, "truth")
			if err != nil {
				t.Fatalf("compile (%s): %v", prof.Name, err)
			}
			if img.Truth == nil {
				t.Fatalf("%s: no ground-truth side-table", prof.Name)
			}
			for fn, fr := range img.Truth.Frames {
				checkFrameInvariants(t, prof.Name+"/"+fn, fr)
			}
		}
	}
}
