package main

import (
	"fmt"

	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/opt"
)

// The -types mode measures the type-recovery stage instead of parsing
// benchmark output: per-function inference wall time, typed-slot coverage,
// the precision/recall against the compiler's declared slot types, and the
// optimizer's promoted-slot counts with and without the typed slot
// splitter. The numbers land in the artifact's "types" section next to the
// interpreter benchmarks so one file tracks both costs and payoffs.

// typePrograms is the corpus slice the -types mode measures: programs
// whose frames carry aggregates (arrays, structs, pointer tables) where
// inference has work to do, plus one scalar-heavy control.
var typePrograms = []string{"bzip2", "astar", "xalancbmk", "hmmer"}

// TypeFunc is one function's inference cost and coverage. The -types
// run has no vsa stage, so InferenceMs includes the function's VSA
// fixpoint, which the typerec stage then computes itself.
type TypeFunc struct {
	Func        string  `json:"func"`         // function name
	InferenceMs float64 `json:"inference_ms"` // per-function inference wall time
	TypedSlots  int     `json:"typed_slots"`  // slots with a committed type
	Slots       int     `json:"slots"`        // layout slots considered
}

// TypeSection is one program's type-recovery measurements.
type TypeSection struct {
	Program          string     `json:"program"`           // benchmark name
	Funcs            []TypeFunc `json:"funcs"`             // per-function costs and coverage
	TypedSlots       int        `json:"typed_slots"`       // committed types, whole program
	TotalSlots       int        `json:"total_slots"`       // layout slots, whole program
	Conflicts        int        `json:"conflicts"`         // irreconcilable-evidence events
	Precision        float64    `json:"precision"`         // correct claims / claims (vs declared types)
	Recall           float64    `json:"recall"`            // correct claims / truth slots
	PromotedBaseline int        `json:"promoted_baseline"` // slots promoted without the typed splitter
	PromotedTyped    int        `json:"promoted_typed"`    // slots promoted with it
}

// typeSections builds the artifact's "types" section.
func typeSections() ([]TypeSection, error) {
	out := make([]TypeSection, 0, len(typePrograms))
	for _, name := range typePrograms {
		p, ok := progs.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown types program %q", name)
		}
		sec, err := typeOne(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, sec)
	}
	return out, nil
}

// typeOne lifts one program twice — the modules are mutated by
// optimization — and reports inference cost, accuracy against the
// compiler's declared types, and both promotion counts.
func typeOne(p progs.Program) (TypeSection, error) {
	img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
	if err != nil {
		return TypeSection{}, fmt.Errorf("build: %w", err)
	}
	typed, err := refined(img, p, core.Options{Lint: core.LintWarn, Types: true})
	if err != nil {
		return TypeSection{}, err
	}
	baseline, err := refined(img, p, core.Options{Lint: core.LintOff})
	if err != nil {
		return TypeSection{}, err
	}
	sec := TypeSection{
		Program:          p.Name,
		PromotedBaseline: countVars(opt.PipelineWith(baseline.Mod, opt.PipelineOpts{})),
		PromotedTyped:    countVars(opt.PipelineWith(typed.Mod, opt.PipelineOpts{Typed: typed.TypedInfo()})),
	}
	for _, st := range typed.TypeStats {
		sec.Funcs = append(sec.Funcs, TypeFunc{
			Func:        st.Func,
			InferenceMs: round2(st.Elapsed.Seconds() * 1000),
			TypedSlots:  st.TypedSlots,
			Slots:       st.Slots,
		})
		sec.TypedSlots += st.TypedSlots
		sec.TotalSlots += st.Slots
		sec.Conflicts += st.Conflicts
	}
	if img.TypedTruth != nil {
		acc := layout.CompareTyped(img.TypedTruth, typed.Typed)
		sec.Precision = round2(acc.Precision())
		sec.Recall = round2(acc.Recall())
	}
	return sec, nil
}

// writeTypes merges a freshly measured "types" section into the artifact,
// leaving the benchmark sections untouched.
func writeTypes(path string) error {
	sections, err := typeSections()
	if err != nil {
		return err
	}
	f, err := readArtifact(path)
	if err != nil {
		return err
	}
	f.Types = sections
	return writeArtifact(path, f, fmt.Sprintf("types section for %d programs", len(sections)))
}
