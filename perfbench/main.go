// Command perfbench is the repository's end-to-end benchmark. It drives the
// recompiler through its public API exactly as cmd/wytiwyg and the serve
// daemon do, checks every output against the input binary's native run,
// and prints end-to-end metrics (or, with --trace 1, per-layer metrics from
// spans recorded around each layer) ending with one JSON line.
//
// Usage, from the repository root (see README.md in this directory):
//
//	bash perfbench/run.sh --workload refine|analyze|serve --seed N --seconds S --trace 0|1
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/obj"
)

// outDir holds everything a run leaves behind, relative to the checkout.
const outDir = ".bench_build/perfbench"

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 11

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics in print order.
type report struct {
	names   []string
	metrics map[string]metric
}

func (r *report) add(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	clients  int

	jobs   []Job
	orders [][]int // serve: each round's submission order
	prep   []*prepared

	attempted   int
	failures    []string
	notes       []string
	rep         report
	perJob      map[string]any       // deterministic outcome per job ID
	jobWalls    map[string][]float64 // untraced walls per job ID, ms
	jobCPUs     map[string][]float64 // untraced processor times per job ID, ms
	spans       []span
	rounds      []map[string]float64 // serve: one summary per untraced round
	rssPeaks    []float64            // MB, one per untraced pass or round
	rssWhole    bool                 // the peak cannot be reset; use the run's
	rssInterval float64              // MB, the current interval's peak before its last reset
	cal         calibrator
}

func (r *run) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "refine, analyze or serve")
	seed := flag.Int64("seed", 1, "seed for the generated jobs")
	seconds := flag.Int("seconds", 10, "measurement time per run")
	trace := flag.Int("trace", 0, "1 records per-layer spans and prints per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	r := &run{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, clients: runtime.NumCPU(), perJob: map[string]any{}, jobWalls: map[string][]float64{},
		jobCPUs: map[string][]float64{}}
	var err error
	if r.jobs, err = generate(r.workload, r.seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(filepath.Join(outDir, "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	setupS, err := r.setup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
		os.Exit(1)
	}
	if r.workload == "serve" {
		r.measureServe()
	} else {
		r.measureBatch()
	}
	r.checkDeterminism()
	if !r.trace {
		r.rep.add("setup_s", "s", setupS)
		r.rep.add("ok_ratio", "ratio", 1-ratio(float64(len(r.failures)), float64(r.attempted)))
		r.rep.add("peak_rss_mb", "MB", r.peakRSS())
	}
	r.finish()
}

// setup compiles every job's input binary and makes its native reference
// runs; serve also starts and stops a daemon. It runs setupRepeats times
// and returns the median duration at the reference host speed; the last
// repetition's results are kept.
func (r *run) setup() (float64, error) {
	var times []float64
	var cals []int
	for i := 0; i < setupRepeats; i++ {
		if !r.trace { // traced runs report no setup_s
			cals = append(cals, r.cal.sample())
		}
		start := time.Now()
		prep, err := prepare(r.jobs)
		if err != nil {
			return 0, err
		}
		if r.workload == "serve" {
			d, err := startDaemon(filepath.Join(outDir, "tmp"), r.clients, nil)
			if err != nil {
				return 0, err
			}
			if err := d.stop(); err != nil {
				return 0, err
			}
		}
		times = append(times, time.Since(start).Seconds())
		r.prep = prep
	}
	if r.trace {
		return median(times), nil
	}
	r.cal.sample()
	for i := range times {
		times[i] *= r.cal.scale(r.cal.wall, cals[i], cals[i]+1)
	}
	return median(times), nil
}

// prepare builds the input binaries (one per distinct source and profile)
// and runs each on every input of every job that uses it.
func prepare(jobs []Job) ([]*prepared, error) {
	images := map[string]*obj.Image{}
	natives := map[string]nativeRun{}
	var out []*prepared
	for i, j := range jobs {
		prof, ok := gen.ProfileByName(j.Profile)
		if !ok {
			return nil, fmt.Errorf("unknown profile %q", j.Profile)
		}
		src := j.source()
		key := j.Profile + "\x00" + src
		img := images[key]
		if img == nil {
			var err error
			if img, err = gen.Build(src, prof, j.Program); err != nil {
				return nil, fmt.Errorf("%s: compile: %w", j.ID, err)
			}
			images[key] = img
		}
		p := &prepared{Job: j, index: i, img: img}
		for _, v := range j.Inputs {
			in := machine.Input{Ints: []int32{v}}
			p.inputs = append(p.inputs, in)
			nkey := key + "\x00" + strconv.Itoa(int(v))
			nat, ok := natives[nkey]
			if !ok {
				var buf bytes.Buffer
				res, err := machine.Execute(img, in, &buf)
				if err != nil {
					return nil, fmt.Errorf("%s: native run on %d: %w", j.ID, v, err)
				}
				nat = nativeRun{Output: buf.String(), Exit: res.ExitCode, Cycles: res.Cycles}
				natives[nkey] = nat
			}
			p.native = append(p.native, nat)
		}
		out = append(out, p)
	}
	return out, nil
}

// startPeakRSS begins one pass's or round's peak-RSS interval.
func (r *run) startPeakRSS() {
	// Return the previous interval's free pages first, so that the reset
	// starts every interval from the live heap alone.
	debug.FreeOSMemory()
	r.resetHWM()
	r.rssInterval = 0
}

// resetHWM resets the process's peak resident set (VmHWM) to its current
// resident set: writing 5 to clear_refs does that on Linux. Where it
// cannot, the run's whole peak is reported instead.
func (r *run) resetHWM() {
	if os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) != nil {
		r.rssPeaks = nil
		r.rssWhole = true
	}
}

// calibrate takes a calibration sample inside a peak-RSS interval, leaving
// the sample's own working set out of the interval's peak.
func (r *run) calibrate() int {
	r.rssInterval = max(r.rssInterval, peakRSSMB())
	k := r.cal.sample()
	r.resetHWM()
	return k
}

// endPeakRSS records the peak resident set of the interval just ended.
func (r *run) endPeakRSS() {
	if !r.rssWhole {
		r.rssPeaks = append(r.rssPeaks, max(r.rssInterval, peakRSSMB()))
	}
}

// peakRSS is the median over the whole passes or rounds of their peak
// resident set. The run's single worst moment depends on when garbage collections happen to run, so the
// whole run's high-water mark varies far more from run to run. Where the
// peak cannot be reset it falls back to the whole run's.
func (r *run) peakRSS() float64 {
	if r.rssWhole || len(r.rssPeaks) == 0 {
		return peakRSSMB()
	}
	return median(r.rssPeaks)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// checkDeterminism compares this run's deterministic per-job outcomes with
// those an earlier run of the same benchmark binary, workload and seed
// recorded — traced or untraced — and records them if none exists. Timing
// never enters the comparison, so any difference is a failure in its own
// right, separate from the wall-clock bounds.
func (r *run) checkDeterminism() {
	exe, err := os.Executable()
	if err != nil {
		r.notes = append(r.notes, "determinism across runs not checked: "+err.Error())
		return
	}
	f, err := os.Open(exe)
	if err != nil {
		r.notes = append(r.notes, "determinism across runs not checked: "+err.Error())
		return
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		r.notes = append(r.notes, "determinism across runs not checked: "+err.Error())
		return
	}
	dir := filepath.Join(outDir, "determinism")
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", hex.EncodeToString(h.Sum(nil))[:16], r.workload, r.seed))
	cur, err := json.Marshal(r.perJob)
	if err != nil {
		r.fail("determinism: %v", err)
		return
	}
	prev, err := os.ReadFile(path)
	if err != nil {
		err = os.MkdirAll(dir, 0o755)
		if err == nil {
			err = os.WriteFile(path, cur, 0o644)
		}
		if err != nil {
			r.notes = append(r.notes, "determinism record not written: "+err.Error())
		}
		return
	}
	var a, b map[string]any
	if json.Unmarshal(prev, &a) != nil || json.Unmarshal(cur, &b) != nil {
		r.fail("determinism: unreadable record %s", path)
		return
	}
	for id, v := range b {
		if !reflect.DeepEqual(a[id], v) {
			r.fail("determinism: job %s differs from the run recorded in %s", id, path)
		}
	}
}

// finish prints the metrics, writes the results file and the final JSON
// line, and exits non-zero on any failure.
func (r *run) finish() {
	for _, f := range r.failures {
		fmt.Println("FAIL:", f)
	}
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	if !r.trace {
		wall, cpu := r.cal.speed()
		fmt.Printf("note: timings are scaled to the reference host speed; this host ran at %.3f× it by wall clock, %.3f× by processor time (medians of %d calibration samples)\n",
			wall, cpu, len(r.cal.wall))
	}
	fmt.Printf("%s seed=%d trace=%v attempted=%d failed=%d failed_ratio=%g\n", r.workload, r.seed,
		r.trace, r.attempted, len(r.failures), ratio(float64(len(r.failures)), float64(r.attempted)))
	for _, name := range r.rep.names {
		m := r.rep.metrics[name]
		fmt.Printf("  %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	results := map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": r.seconds.Seconds(), "trace": r.trace,
		"jobs": r.jobs, "orders": r.orders, "outcomes": r.perJob, "job_walls_ms": r.jobWalls, "job_cpu_ms": r.jobCPUs, "metrics": r.rep.metrics,
		"failures": r.failures, "notes": r.notes, "spans": r.spans, "rounds": r.rounds, "calibration_wall_ms": r.cal.wall, "calibration_cpu_ms": r.cal.cpu,
	}
	path := filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, r.seed, btoi(r.trace)))
	if err := writeJSON(path, results); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: results:", err)
	} else {
		fmt.Println("results, job list and spans:", path)
	}
	line, _ := json.Marshal(map[string]any{
		"correct": len(r.failures) == 0, "attempted": r.attempted, "failed": len(r.failures),
		"metrics": r.rep.metrics,
	})
	fmt.Println(string(line))
	if len(r.failures) > 0 {
		os.Exit(1)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// writeJSON writes v to path, creating its directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
