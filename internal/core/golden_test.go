package core_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wytiwyg/internal/bench"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/vsa_golden.txt from the current output")

// goldenPrograms are the programs whose -vsa -types run is dominated by
// the static analyses (the analyze benchmark workload's set).
var goldenPrograms = []string{"hmmer", "mcf", "libquantum", "bzip2", "gcc", "xalancbmk"}

const goldenFile = "testdata/vsa_golden.txt"

// TestVSAOutputGolden pins the analysis stages' output: for each program
// × compiler profile at its Train input, under -vsa -types with the alias
// oracle driving the optimizer, the sha256 of fingerprintFull (refined IR,
// layouts, report, typed JSON, verdicts and the recompiled instruction
// stream) must match the recorded digest. A performance change to VSA,
// typerec or the optimizer's oracle use must leave every digest as is; an
// intended output change re-baselines the file with
//
//	go test ./internal/core -run TestVSAOutputGolden -update-golden
func TestVSAOutputGolden(t *testing.T) {
	want := map[string]string{}
	if !*updateGolden {
		fh, err := os.Open(goldenFile)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(fh)
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) == 2 {
				want[f[0]] = f[1]
			}
		}
		fh.Close()
	}
	profiles := bench.Configs
	if testing.Short() {
		profiles = profiles[:1]
	}
	var lines []string
	for _, name := range goldenPrograms {
		p, ok := progs.ByName(name)
		if !ok {
			t.Fatalf("unknown program %s", name)
		}
		for _, prof := range profiles {
			key := name + "/" + prof.Name
			img, err := gen.Build(p.Src, prof, p.Name)
			if err != nil {
				t.Fatalf("%s: build: %v", key, err)
			}
			pl, err := core.LiftBinaryOpts(img, []machine.Input{p.Train},
				core.Options{Jobs: 1, Lint: core.LintWarn, VSA: true, Types: true})
			if err != nil {
				t.Fatalf("%s: lift: %v", key, err)
			}
			if err := pl.Refine(); err != nil {
				t.Fatalf("%s: refine: %v", key, err)
			}
			got := fmt.Sprintf("%x", sha256.Sum256([]byte(fingerprintFull(t, pl, p.Name))))
			lines = append(lines, key+" "+got)
			if *updateGolden {
				continue
			}
			if w, ok := want[key]; !ok {
				t.Errorf("%s: no recorded digest", key)
			} else if got != w {
				t.Errorf("%s: output digest %s, recorded %s", key, got, w)
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
