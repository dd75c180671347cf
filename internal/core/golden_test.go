package core_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/bench"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/tracer"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the golden digest file of the selected test from the current output")

// goldenCase is one pinned pipeline run: a corpus program, its inputs and
// the options the pipeline runs under.
type goldenCase struct {
	prog   string
	inputs []machine.Input
	opts   core.Options
}

// checkGolden runs every case under every compiler profile (the first one
// only under -short) and compares the digests digest returns for the
// refined pipeline with the ones recorded in file, one line per case:
// "program/profile digest...". With -update-golden it rewrites file
// instead.
func checkGolden(t *testing.T, file string, cases []goldenCase,
	digest func(t *testing.T, pl *core.Pipeline, name string) []string) {
	t.Helper()
	want := map[string]string{}
	if !*updateGolden {
		fh, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(fh)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), " "); ok {
				want[k] = v
			}
		}
		fh.Close()
	}
	profiles := bench.Configs
	if testing.Short() {
		profiles = profiles[:1]
	}
	var lines []string
	for _, c := range cases {
		p, ok := progs.ByName(c.prog)
		if !ok {
			t.Fatalf("unknown program %s", c.prog)
		}
		for _, prof := range profiles {
			key := c.prog + "/" + prof.Name
			img, err := gen.Build(p.Src, prof, p.Name)
			if err != nil {
				t.Fatalf("%s: build: %v", key, err)
			}
			pl, err := core.LiftBinaryOpts(img, c.inputs, c.opts)
			if err != nil {
				t.Fatalf("%s: lift: %v", key, err)
			}
			if err := pl.Refine(); err != nil {
				t.Fatalf("%s: refine: %v", key, err)
			}
			got := strings.Join(digest(t, pl, p.Name), " ")
			lines = append(lines, key+" "+got)
			if *updateGolden {
				continue
			}
			if w, ok := want[key]; !ok {
				t.Errorf("%s: no recorded digest", key)
			} else if got != w {
				t.Errorf("%s: output digests %s, recorded %s", key, got, w)
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func sha(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// fullDigest is the sha256 of fingerprintFull.
func fullDigest(t *testing.T, pl *core.Pipeline, name string) []string {
	return []string{sha(fingerprintFull(t, pl, name))}
}

// goldenPrograms are the programs whose -vsa -types run is dominated by
// the static analyses (the analyze benchmark workload's set).
var goldenPrograms = []string{"hmmer", "mcf", "libquantum", "bzip2", "gcc", "xalancbmk"}

// TestVSAOutputGolden pins the analysis stages' output: for each program
// × compiler profile at its Train input, under -vsa -types with the alias
// oracle driving the optimizer, the sha256 of fingerprintFull (refined IR,
// layouts, report, typed JSON, verdicts and the recompiled instruction
// stream) must match the digest in testdata/vsa_golden.txt. A performance
// change to VSA, typerec or the optimizer's oracle use must leave every
// digest as is; an intended output change re-baselines the file with
//
//	go test ./internal/core -run TestVSAOutputGolden -update-golden
func TestVSAOutputGolden(t *testing.T) {
	var cases []goldenCase
	for _, name := range goldenPrograms {
		p, _ := progs.ByName(name)
		cases = append(cases, goldenCase{
			prog:   name,
			inputs: []machine.Input{p.Train},
			opts:   core.Options{Jobs: 1, Lint: core.LintWarn, VSA: true, Types: true},
		})
	}
	checkGolden(t, "testdata/vsa_golden.txt", cases, fullDigest)
}

// refineScales are the refine benchmark workload's base input scales.
var refineScales = []struct {
	prog  string
	scale int32
}{
	{"bzip2", 8}, {"gcc", 10}, {"mcf", 16}, {"gobmk", 6}, {"hmmer", 12},
	{"sjeng", 2}, {"libquantum", 14}, {"h264ref", 1}, {"astar", 1}, {"xalancbmk", 20},
}

// traceText renders everything the dynamic trace recorded, sorted: the
// executed addresses, the call and jump target sets, the external call
// sites and the return sites.
func traceText(tr *tracer.Trace) string {
	var b strings.Builder
	sorted := func(m map[uint32]bool) []uint32 {
		out := make([]uint32, 0, len(m))
		for a := range m {
			out = append(out, a)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	fmt.Fprintf(&b, "executed %x\n", sorted(tr.Executed))
	for _, sets := range []struct {
		name string
		m    map[uint32]map[uint32]bool
	}{{"call", tr.CallTargets}, {"jump", tr.JumpTargets}} {
		froms := make(map[uint32]bool, len(sets.m))
		for from := range sets.m {
			froms[from] = true
		}
		for _, from := range sorted(froms) {
			fmt.Fprintf(&b, "%s %x -> %x\n", sets.name, from, tracer.Targets(sets.m, from))
		}
	}
	exts := make(map[uint32]bool, len(tr.ExtCalls))
	for from := range tr.ExtCalls {
		exts[from] = true
	}
	for _, from := range sorted(exts) {
		fmt.Fprintf(&b, "ext %x %s\n", from, tr.ExtCalls[from])
	}
	fmt.Fprintf(&b, "ret %x\n", sorted(tr.RetSites))
	return b.String()
}

// TestRefineOutputGolden pins the default-flags output of the dynamic
// stages: for each program × compiler profile at the refine benchmark
// workload's base input scale, under default flags with linting, the
// sha256 of fingerprintFull and of the merged trace (executed addresses
// and target sets) must match the digests in testdata/refine_golden.txt.
// A performance change to the tracer or to the refinement interpreters
// must leave every digest as is; an intended output change re-baselines
// the file with
//
//	go test ./internal/core -run TestRefineOutputGolden -update-golden
func TestRefineOutputGolden(t *testing.T) {
	var cases []goldenCase
	for _, rs := range refineScales {
		cases = append(cases, goldenCase{
			prog:   rs.prog,
			inputs: []machine.Input{{Ints: []int32{rs.scale}}},
			opts:   core.Options{Jobs: 1, Lint: core.LintWarn},
		})
	}
	checkGolden(t, "testdata/refine_golden.txt", cases,
		func(t *testing.T, pl *core.Pipeline, name string) []string {
			trace := sha(traceText(pl.Trace)) // before the optimizer mutates the module
			return []string{sha(fingerprintFull(t, pl, name)), trace}
		})
}

// lintFactsDigest renders the static audit's facts for every function of
// the refined module: the bounds checker's access counts, the stack-height
// values it confirmed (by value number) and the sp0-relative references
// it remembered. The diagnostics alone are in fingerprintFull; these are
// the verdicts that raise none.
func lintFactsDigest(t *testing.T, pl *core.Pipeline, name string) []string {
	var b strings.Builder
	for _, f := range pl.Mod.Funcs {
		var rep analysis.Report
		st := analysis.CheckBounds(f, &rep)
		fmt.Fprintf(&b, "%s bounds %+v\n", f.Name, st)
		facts := pl.Heights[f]
		known := make([]*ir.Value, 0, len(facts.Known))
		for v := range facts.Known {
			known = append(known, v)
		}
		sort.Slice(known, func(i, j int) bool { return known[i].ID < known[j].ID })
		b.WriteString("known")
		for _, v := range known {
			fmt.Fprintf(&b, " v%d:%d", v.ID, facts.Known[v])
		}
		b.WriteString("\nrefs")
		for _, r := range facts.Refs {
			fmt.Fprintf(&b, " %s:%d/%d", r.Loc, r.Off, r.Size)
		}
		b.WriteString("\n")
	}
	return []string{sha(b.String())}
}

// TestLintFactsGolden pins what the lint dataflow proves, not only what
// it reports: for each program × compiler profile at the refine benchmark
// workload's base input scale, under default flags with linting, the
// sha256 of every function's BoundsStats, confirmed stack heights and
// remembered stack references must match testdata/lint_facts_golden.txt.
// A performance change to the analysis engine or its clients must leave
// every digest as is; an intended change re-baselines the file with
//
//	go test ./internal/core -run TestLintFactsGolden -update-golden
func TestLintFactsGolden(t *testing.T) {
	var cases []goldenCase
	for _, rs := range refineScales {
		cases = append(cases, goldenCase{
			prog:   rs.prog,
			inputs: []machine.Input{{Ints: []int32{rs.scale}}},
			opts:   core.Options{Jobs: 1, Lint: core.LintWarn},
		})
	}
	checkGolden(t, "testdata/lint_facts_golden.txt", cases, lintFactsDigest)
}
