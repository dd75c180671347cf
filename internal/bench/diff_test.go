package bench

import (
	"bytes"
	"fmt"
	"testing"

	"wytiwyg/internal/codegen"
	"wytiwyg/internal/core"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/opt"
)

// Differential testing: generate random (but well-defined) mini-C programs
// and require the complete pipeline — compile at every profile, trace,
// refine, optimize, recompile — to preserve behaviour exactly. This is the
// reproduction's analogue of the paper's functionality validation at scale.

func TestDifferentialRandomPrograms(t *testing.T) {
	programs := int64(30)
	if testing.Short() {
		programs = 6
	}
	for seed := int64(1); seed <= programs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			src := RandomProgram(seed)
			prof := gen.Profiles[int(seed)%len(gen.Profiles)]
			img, err := gen.Build(src, prof, "fuzz")
			if err != nil {
				t.Fatalf("compile (%s):\n%s\nerr: %v", prof.Name, src, err)
			}
			var natOut bytes.Buffer
			nat, err := machine.Execute(img, machine.Input{}, &natOut)
			if err != nil {
				t.Fatalf("native: %v\n%s", err, src)
			}
			p, err := core.LiftBinary(img, nil)
			if err != nil {
				t.Fatalf("lift: %v\n%s", err, src)
			}
			if err := p.Refine(); err != nil {
				t.Fatalf("refine: %v\n%s", err, src)
			}
			opt.Pipeline(p.Mod)
			out, err := codegen.Compile(p.Mod, "fuzz-rec")
			if err != nil {
				t.Fatalf("codegen: %v\n%s", err, src)
			}
			var recOut bytes.Buffer
			rec, err := machine.Execute(out, machine.Input{}, &recOut)
			if err != nil {
				t.Fatalf("recompiled run: %v\n%s", err, src)
			}
			if rec.ExitCode != nat.ExitCode || recOut.String() != natOut.String() {
				t.Errorf("behaviour diverged (%s): %d/%q vs %d/%q\n%s",
					prof.Name, rec.ExitCode, recOut.String(),
					nat.ExitCode, natOut.String(), src)
			}
		})
	}
}
