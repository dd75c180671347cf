package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"wytiwyg/internal/codegen"
	"wytiwyg/internal/core"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/opt"
	"wytiwyg/internal/symbolize"
)

// prepared is a job with everything set-up made for it: the input binary,
// its inputs, and the input binary's native run on each input — the
// reference every recompiled output is checked against.
type prepared struct {
	Job
	index  int
	img    *obj.Image
	inputs []machine.Input
	native []nativeRun
}

// nativeRun is one run of the input binary.
type nativeRun struct {
	Output string
	Exit   int32
	Cycles uint64
}

// outcome is everything deterministic about one job execution. Two
// executions of the same job — in one run, across runs, traced or not —
// must produce equal outcomes.
type outcome struct {
	Cycles     []uint64            `json:"cycles"` // recompiled binary, per input
	CodeDigest string              `json:"code_digest"`
	Layout     layout.Accuracy     `json:"layout"`
	Typed      layout.TypeAccuracy `json:"typed"`
	Counts     map[string]int      `json:"counts"`
}

// execution is one timed run of a batch job.
type execution struct {
	wall time.Duration
	cpu  time.Duration // the process's processor time over the same interval
	use  layerUse      // traced executions only
	out  *outcome
}

// countValues counts a module's IR values (phis and instructions).
func countValues(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Phis) + len(b.Insts)
		}
	}
	return n
}

// runBatch executes one job the way cmd/wytiwyg does — lift, refine,
// optimize, generate code, run the recompiled binary on every input — and
// checks each run against the input binary's native run. With a recorder
// the pipeline's stage events and the benchmark's own timers become spans under
// one job span. Only the pipeline calls are inside the timed wall; scoring
// the recovered layouts against ground truth happens afterwards.
func runBatch(j *prepared, rec *recorder) (ex execution, err error) {
	opts := core.Options{Jobs: 1, Lint: core.LintWarn, VSA: j.VSA, Types: j.Types}
	// Every job starts from a collected heap, so the garbage collection a
	// job pays for is its own and not the previous job's.
	runtime.GC()
	timed := func(_ string, fn func()) { fn() }
	jobSpan := -1
	if rec != nil {
		opts.Observer = rec.observe
		timed = rec.timed
		jobSpan = rec.enter("job", j.index)
	}
	start, cpu := time.Now(), processCPU()
	stopped := false
	// stop ends the timed part of the job; it runs once, on every path.
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		ex.wall, ex.cpu = time.Since(start), processCPU()-cpu
		if rec != nil {
			ex.use = rec.children(rec.leave(jobSpan))
		}
	}
	defer stop()

	p, err := core.LiftBinaryOpts(j.img, j.inputs, opts)
	if err != nil {
		return ex, fmt.Errorf("lift: %w", err)
	}
	liftValues := countValues(p.Mod)
	if err := p.Refine(); err != nil {
		return ex, fmt.Errorf("refine: %w", err)
	}
	var promoted *layout.Program
	timed("opt", func() {
		promoted = opt.PipelineWith(p.Mod, opt.PipelineOpts{Oracle: p.Oracle(), Typed: p.TypedInfo()})
	})
	optValues := countValues(p.Mod)
	var img *obj.Image
	timed("codegen", func() { img, err = codegen.CompileWith(p.Mod, "recovered", codegen.Options{}) })
	if err != nil {
		return ex, fmt.Errorf("codegen: %w", err)
	}
	runs := make([]machine.Result, len(j.inputs))
	outs := make([]bytes.Buffer, len(j.inputs))
	timed("machine", func() {
		for i, in := range j.inputs {
			if runs[i], err = machine.Execute(img, in, &outs[i]); err != nil {
				return
			}
		}
	})
	stop()
	if err != nil {
		return ex, fmt.Errorf("recompiled run: %w", err)
	}

	o := &outcome{Counts: map[string]int{
		"tracer.insns_covered": len(p.Trace.Executed),
		"funcrec.funcs":        len(p.Rec.Funcs),
		"lifter.ir_values":     liftValues,
		"opt.ir_values":        optValues,
		"codegen.insns":        len(img.Code),
		"core.degraded_funcs":  len(p.Degraded),
	}}
	for i, nat := range j.native {
		if outs[i].String() != nat.Output || runs[i].ExitCode != nat.Exit {
			return ex, fmt.Errorf("input %d: recompiled binary exit=%d output %q, input binary exit=%d output %q",
				j.inputs[i].Ints, runs[i].ExitCode, outs[i].String(), nat.Exit, nat.Output)
		}
		o.Cycles = append(o.Cycles, runs[i].Cycles)
	}
	sum := sha256.Sum256(isa.EncodeAll(img.Code))
	o.CodeDigest = hex.EncodeToString(sum[:])
	for _, fr := range p.Recovered.Frames {
		o.Counts["symbolize.slots"] += len(fr.Vars)
	}
	for _, fr := range promoted.Frames {
		o.Counts["opt.slots_promoted"] += len(fr.Vars)
	}
	for _, st := range p.VSAStats {
		o.Counts["vsa.accesses_checked"] += st.Checked
	}
	for _, st := range p.TypeStats {
		o.Counts["typerec.slots"] += st.Slots
		o.Counts["typerec.typed_slots"] += st.TypedSlots
	}
	o.Layout, o.Typed = score(p, promoted, j.img)
	ex.out = o
	return ex, nil
}

// score compares the recovered layout with the compiler's ground truth the
// way Figure 7 does (internal/bench.RunProgram): the frames left in memory
// after optimization plus the scalars mem2reg promoted, over the traced
// functions only. Typed accuracy covers the functions the type stage
// analyzed; on a job without it that set is empty, which
// layout.CompareTyped scores as precision and recall 1.
func score(p *core.Pipeline, promoted *layout.Program, img *obj.Image) (layout.Accuracy, layout.TypeAccuracy) {
	recovered := symbolize.RecoveredLayout(p.Mod)
	for _, name := range promoted.FuncNames() {
		pf := promoted.Frame(name)
		rf := recovered.Frame(name)
		if rf == nil {
			recovered.Add(pf)
			continue
		}
		rf.Vars = append(rf.Vars, pf.Vars...)
		rf.Sort()
	}
	truth := layout.NewProgram()
	typedTruth := layout.NewTypedProgram()
	for _, f := range p.Mod.Funcs {
		if tf := img.Truth.Frame(f.Name); tf != nil {
			truth.Add(tf)
		}
		if p.Typed != nil && img.TypedTruth != nil {
			if tf := img.TypedTruth.Frame(f.Name); tf != nil {
				typedTruth.Add(tf)
			}
		}
	}
	return layout.Compare(truth, recovered), layout.CompareTyped(typedTruth, p.Typed)
}
