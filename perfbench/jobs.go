package main

import (
	"fmt"
	"math/rand"
	"strings"

	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/minicc/gen"
)

// Job is one generated unit of work. The list of jobs is a pure function of
// the workload and the seed; it is recorded with the results, and the same
// seed regenerates it exactly.
type Job struct {
	ID      string `json:"id"`
	Kind    string `json:"kind"` // "recompile" on the batch workloads; lift, lint or recompile on serve
	Program string `json:"program"`
	// Increment, when non-zero, replaces the additive constant of the
	// program's nextRand generator: a one-function, one-literal source
	// variant of the corpus program.
	Increment int32   `json:"increment,omitempty"`
	Profile   string  `json:"profile"`
	Inputs    []int32 `json:"inputs"`
	VSA       bool    `json:"vsa,omitempty"`
	Types     bool    `json:"types,omitempty"`
}

// lcgLine is the statement a source variant edits. Every corpus program
// but libquantum draws its data from this generator; the additive constant
// only changes which values are drawn, and every use of a drawn value is
// reduced modulo a bound, so a variant runs the same code paths on a
// different data set.
const lcgLine = "seed = seed * 1103515245 + 12345;"

// source returns the job's mini-C source.
func (j *Job) source() string {
	p, ok := progs.ByName(j.Program)
	if !ok {
		panic("perfbench: unknown program " + j.Program)
	}
	if j.Increment == 0 {
		return p.Src
	}
	if !strings.Contains(p.Src, lcgLine) {
		panic("perfbench: no generator line to vary in " + j.Program)
	}
	return strings.Replace(p.Src, lcgLine,
		fmt.Sprintf("seed = seed * 1103515245 + %d;", j.Increment), 1)
}

// profiles are the four compiler personalities of Table 1.
var profiles = []string{gen.GCC12O3.Name, gen.GCC12O0.Name, gen.Clang16O3.Name, gen.GCC44O3.Name}

// refineScales bounds each program's input on the refine workload. A job
// traces and validates one ref-scale input: the row's base scale, plus its
// step for two of the four profiles. One step changes a job's time by a
// tenth at most. The scales keep every job between roughly 25 ms
// and 1 s on a 2-core x86 machine; astar and sjeng at their default ref
// scale would take 15 s each and dominate. h264ref's next scale costs half
// as much again, so its scale is fixed.
var refineScales = map[string]struct{ base, step int32 }{
	"bzip2":      {8, 1},
	"gcc":        {10, 1},
	"mcf":        {16, 1},
	"gobmk":      {6, 1},
	"hmmer":      {12, 1},
	"sjeng":      {2, 1},
	"libquantum": {14, 1},
	"h264ref":    {1, 0},
	"astar":      {1, 1},
	"xalancbmk":  {20, 1},
}

// analyzePrograms are the programs whose -vsa -types run is dominated by
// static analysis rather than interpretation (sjeng and astar are not,
// even at train scale).
var analyzePrograms = []string{"hmmer", "mcf", "libquantum", "bzip2", "gcc", "xalancbmk"}

// servePrograms are the small-input programs the serve workload submits.
var servePrograms = []string{"mcf", "gcc", "xalancbmk", "libquantum", "gobmk", "hmmer"}

// serveKinds are the request kinds; every serve program is submitted as
// each of them.
var serveKinds = []string{"lift", "lint", "recompile"}

// generate returns the workload's job list for one seed.
func generate(workload string, seed int64) ([]Job, error) {
	rng := rand.New(rand.NewSource(seed))
	// stepped marks, per program, the two of its four profiles whose input
	// takes one scale step; the seed draws which two. Every program then
	// has the same multiset of inputs for every seed, so the total work of
	// a pass and the distribution of job times hardly move with the seed.
	var stepped [4]int32
	var jobs []Job
	switch workload {
	case "refine":
		for _, p := range progs.All {
			stepped = draw(rng)
			sc := refineScales[p.Name]
			for i, prof := range profiles {
				jobs = append(jobs, Job{Kind: "recompile", Program: p.Name, Profile: prof,
					Inputs: []int32{sc.base + sc.step*stepped[i]}})
			}
		}
	case "analyze":
		for _, name := range analyzePrograms {
			stepped = draw(rng)
			// One train-scale input: the train scale, or one less for the
			// two stepped profiles. Interpretation is a small share here,
			// so the step hardly moves a job's time.
			p, _ := progs.ByName(name)
			for i, prof := range profiles {
				jobs = append(jobs, Job{Kind: "recompile", Program: name, Profile: prof,
					Inputs: []int32{p.Train.Ints[0] - stepped[i]}, VSA: true, Types: true})
			}
		}
	case "serve":
		return generateServe(rng), nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want refine, analyze or serve)", workload)
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	for i := range jobs {
		jobs[i].ID = fmt.Sprintf("%s-%02d", workload[:1], i)
	}
	return jobs, nil
}

// draw returns a seeded choice of two of the four profiles, as 0/1 marks.
func draw(rng *rand.Rand) [4]int32 {
	var marks [4]int32
	for _, i := range rng.Perm(4)[:2] {
		marks[i] = 1
	}
	return marks
}

// serveRepeats is how often each serve job is submitted per round. With
// 23 jobs that is 920 requests, of which the cold ones and the requests
// that join them in flight are about 3%: request_ms.p90 measures the warm
// path under load.
const serveRepeats = 40

// generateServe draws the serve jobs. Each serve program is submitted as a
// lift, a lint and a recompile job with the daemon's default profile and
// the same small inputs; lift and lint share a program cache key, so
// whichever comes second reads the program tier. Every program with a
// generator line also gets a one-literal source variant with a seeded
// literal, submitted as a recompile job with its base program's inputs: it
// hits the function tier and misses the program and response tiers. The
// base jobs are the same for every seed, so every seed costs the same; the
// seed draws the variants and, per round, the submission order.
func generateServe(rng *rand.Rand) []Job {
	var jobs, variants []Job
	for _, name := range servePrograms {
		in := []int32{1, 3}
		for _, kind := range serveKinds {
			jobs = append(jobs, Job{Kind: kind, Program: name, Profile: gen.GCC12O3.Name, Inputs: in})
		}
		if name != "libquantum" { // no generator line to vary
			variants = append(variants, Job{Kind: "recompile", Program: name, Profile: gen.GCC12O3.Name,
				Inputs: in, Increment: 2*int32(rng.Intn(5000)) + 12347}) // odd, never the original 12345
		}
	}
	jobs = append(jobs, variants...)
	for i := range jobs {
		jobs[i].ID = fmt.Sprintf("s-%02d", i)
	}
	return jobs
}

// serveOrder draws one serve round's submission order: indexes into the
// job list, serveRepeats per job, interleaved. Variants stay out of the
// first half of the round so that their base programs' functions are
// cached by the time they arrive. Each round of a run gets its own order,
// so a run averages over many interleavings instead of measuring one.
func serveOrder(jobs []Job, seed int64, round int) []int {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(round)))
	var early, late []int
	for i, j := range jobs {
		for r := 0; r < serveRepeats; r++ {
			if j.Increment == 0 && r < serveRepeats/2 {
				early = append(early, i)
			} else {
				late = append(late, i)
			}
		}
	}
	rng.Shuffle(len(early), func(i, j int) { early[i], early[j] = early[j], early[i] })
	rng.Shuffle(len(late), func(i, j int) { late[i], late[j] = late[j], late[i] })
	return append(early, late...)
}
