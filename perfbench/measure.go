package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"time"

	"wytiwyg/internal/layout"
	"wytiwyg/internal/serve"
)

// busyLayers are the layers whose busy time the traced run reports, in
// pipeline order. "machine" is the validating runs of the recompiled
// binary and is reported as machine.validate_ms.
var busyLayers = []string{"tracer", "funcrec", "lifter", "regsave", "varargs", "stackref",
	"symbolize", "vsa", "typerec", "opt", "codegen", "machine"}

// allocLayers are the layers whose allocation the traced run reports.
var allocLayers = []string{"tracer", "regsave", "varargs", "symbolize", "vsa", "typerec", "opt"}

// countMetrics are the deterministic per-layer counts, summed over the job
// list.
var countMetrics = []string{"opt.slots_promoted", "opt.ir_values", "codegen.insns", "lifter.ir_values",
	"core.degraded_funcs", "symbolize.slots", "vsa.accesses_checked", "tracer.insns_covered", "funcrec.funcs"}

// serveMetrics are the per-layer metrics only the serve workload measures.
var serveMetrics = []string{"serve.queue_wait_ms", "serve.warm_ratio", "serve.dedup_joins",
	"refcache.hit_ratio", "refcache.puts", "refcache.func_hit_ratio"}

// busyName is the per-layer metric name of a layer's busy time.
func busyName(layer string) string {
	if layer == "machine" {
		return "machine.validate_ms"
	}
	return layer + ".busy_ms"
}

// addLayerMetrics reports busy time, allocation and counts in the fixed
// per-layer order; layers a workload does not reach read 0.
func (r *run) addLayerMetrics(busy map[string]float64, allocMB map[string]float64, counts map[string]int,
	unattributed, jobMs, typedRatio, overhead float64, serveVals map[string]float64) {
	for _, l := range busyLayers {
		r.rep.add(busyName(l), "ms", busy[l])
	}
	r.rep.add("core.unattributed_ms", "ms", unattributed)
	r.rep.add("core.job_ms", "ms", jobMs)
	for _, name := range countMetrics {
		r.rep.add(name, "count", float64(counts[name]))
	}
	r.rep.add("typerec.typed_ratio", "ratio", typedRatio)
	for _, l := range allocLayers {
		r.rep.add(l+".alloc_mb", "MB", allocMB[l])
	}
	for _, name := range serveMetrics {
		unit := "ratio"
		switch name {
		case "serve.queue_wait_ms":
			unit = "ms"
		case "serve.dedup_joins", "refcache.puts":
			unit = "count"
		}
		r.rep.add(name, unit, serveVals[name])
	}
	r.rep.add("bench.trace_overhead_ratio", "ratio", overhead)
}

// addQuality reports the output-quality metrics shared by every workload.
func (r *run) addQuality(cycleRatios []float64, acc layout.Accuracy, typed layout.TypeAccuracy) {
	r.rep.add("output_cycles_ratio.geomean", "ratio", geomean(cycleRatios))
	r.rep.add("layout_precision", "ratio", acc.Precision())
	r.rep.add("layout_recall", "ratio", acc.Recall())
	r.rep.add("typed_precision", "ratio", typed.Precision())
	r.rep.add("typed_recall", "ratio", typed.Recall())
}

// jobAgg collects a batch job's executions.
type jobAgg struct {
	walls, tracedWalls []float64 // ms
	cpus               []float64 // untraced executions: processor time, ms
	cals               []int     // untraced executions: the calibration sample taken just before
	uses               []layerUse
	out                *outcome
}

// measureBatch runs passes over the job list, in its seeded order: one
// whole pass, then on through further passes while the next job's last
// time still fits in the measurement time. Every job is summarised by the
// median of its own executions, so a job that got one more execution than
// another weighs no more. Traced runs execute each job twice in a row,
// untraced and traced, alternating which goes first, so the tracing
// overhead is measured on the same jobs at the same time.
func (r *run) measureBatch() {
	aggs := make([]jobAgg, len(r.prep))
	last := make([]time.Duration, len(r.prep)) // each job's last turn, calibration included
	var rec *recorder
	if r.trace {
		rec = newRecorder()
	}
	start := time.Now()
	deadline := start.Add(r.seconds)
passes:
	for pass := 0; ; pass++ {
		r.startPeakRSS()
		for i, j := range r.prep {
			if pass > 0 && time.Now().Add(last[i]).After(deadline) {
				break passes // a partial pass leaves no peak-RSS interval
			}
			turn := time.Now()
			modes := []bool{false}
			if r.trace {
				modes = []bool{(i+pass)%2 == 1, (i+pass)%2 == 0}
			}
			for _, traced := range modes {
				var rc *recorder
				if traced {
					rc = rec
				}
				cal := -1
				if !r.trace {
					cal = r.calibrate()
				}
				ex, err := runBatch(j, rc)
				r.attempted++
				if err != nil {
					r.fail("%s (%s %s inputs %v): %v", j.ID, j.Program, j.Profile, j.Inputs, err)
					continue
				}
				a := &aggs[i]
				if a.out == nil {
					a.out = ex.out
				} else if !reflect.DeepEqual(a.out, ex.out) {
					r.fail("%s: outcome differs between executions (traced=%v)", j.ID, traced)
				}
				if traced {
					a.tracedWalls = append(a.tracedWalls, ms(ex.wall))
					a.uses = append(a.uses, ex.use)
				} else {
					a.walls = append(a.walls, ms(ex.wall))
					a.cpus = append(a.cpus, ms(ex.cpu))
					a.cals = append(a.cals, cal)
				}
			}
			last[i] = time.Since(turn)
		}
		r.endPeakRSS()
	}
	measured := time.Since(start)
	if rec != nil {
		r.spans = rec.finish()
	} else {
		r.cal.sample() // the sample after the last execution; outside any pass
	}

	var medians, rawWalls, rawCPUs, cycleRatios []float64
	executions := 0
	var acc layout.Accuracy
	var typed layout.TypeAccuracy
	counts := map[string]int{}
	for i, a := range aggs {
		if a.out == nil {
			continue
		}
		j := r.prep[i]
		r.perJob[j.ID] = a.out
		r.jobWalls[j.ID] = a.walls
		if !r.trace {
			r.jobCPUs[j.ID] = a.cpus
			// Each execution's processor time at the reference speed of
			// the host.
			scaled := make([]float64, len(a.cpus))
			for k, t := range a.cpus {
				scaled[k] = t * r.cal.scale(r.cal.cpu, a.cals[k], a.cals[k]+1)
			}
			medians = append(medians, median(scaled))
			rawWalls = append(rawWalls, median(a.walls))
			rawCPUs = append(rawCPUs, median(a.cpus))
		}
		executions += len(a.walls)
		last := len(j.native) - 1
		cycleRatios = append(cycleRatios, float64(a.out.Cycles[last])/float64(j.native[last].Cycles))
		acc.Add(a.out.Layout)
		typed.Add(a.out.Typed)
		for k, v := range a.out.Counts {
			counts[k] += v
		}
	}
	if r.trace {
		r.batchLayers(aggs, counts)
		return
	}
	passSec := sum(medians) / 1e3
	// Each job is one request here, so the request rate is the job rate.
	r.rep.add("jobs_per_s", "1/s", ratio(float64(len(medians)), passSec))
	r.rep.add("recompile_ms.geomean", "ms", geomean(medians))
	r.rep.add("request_ms.p50", "ms", percentile(medians, 0.5))
	r.rep.add("request_ms.p90", "ms", percentile(medians, 0.9))
	r.rep.add("requests_per_s", "1/s", ratio(float64(len(medians)), passSec))
	r.addQuality(cycleRatios, acc, typed)
	r.notes = append(r.notes, fmt.Sprintf("%d jobs, %d executions in %.1fs",
		len(medians), executions, measured.Seconds()),
		fmt.Sprintf("unscaled wall clock: jobs_per_s %.4g, recompile_ms.geomean %.4g",
			float64(len(rawWalls))/(sum(rawWalls)/1e3), geomean(rawWalls)),
		fmt.Sprintf("unscaled processor time: jobs_per_s %.4g, recompile_ms.geomean %.4g",
			float64(len(rawCPUs))/(sum(rawCPUs)/1e3), geomean(rawCPUs)))
}

// batchLayers reports the traced run's per-layer metrics: each job's mean
// over its traced executions (means add up, so the layers plus the
// unattributed remainder reconcile with the job wall clock), summed over
// the job list.
func (r *run) batchLayers(aggs []jobAgg, counts map[string]int) {
	busy := map[string]float64{}
	allocMB := map[string]float64{}
	var unattributed, jobMs, traced, untraced float64
	for _, a := range aggs {
		n := float64(len(a.uses))
		if n == 0 {
			continue
		}
		for _, u := range a.uses {
			for l, d := range u.Busy {
				busy[l] += ms(d) / n
			}
			for l, b := range u.Alloc {
				allocMB[l] += float64(b) / (1 << 20) / n
			}
			unattributed += ms(u.Self) / n
			jobMs += ms(u.Dur) / n
		}
		traced += median(a.tracedWalls)
		untraced += median(a.walls)
	}
	r.addLayerMetrics(busy, allocMB, counts, unattributed, jobMs,
		ratio(float64(counts["typerec.typed_slots"]), float64(counts["typerec.slots"])),
		ratio(traced, untraced), nil)
	interp := busy["tracer"] + busy["regsave"] + busy["varargs"] + busy["symbolize"]
	analysis := busy["vsa"] + busy["typerec"] + busy["opt"]
	total := unattributed
	for _, l := range busyLayers {
		total += busy[l]
	}
	r.notes = append(r.notes,
		fmt.Sprintf("busy shares of the %.1f ms job wall: tracer+regsave+varargs+symbolize %.1f%%, vsa+typerec+opt %.1f%%, unattributed %.1f%%",
			jobMs, 100*interp/jobMs, 100*analysis/jobMs, 100*unattributed/jobMs),
		fmt.Sprintf("reconciliation: layer spans + unattributed = %.3f ms, job wall = %.3f ms", total, jobMs))
}

// serveCalSamples is how many calibration samples are taken before each
// untraced serve round, and after the last.
const serveCalSamples = 3

// measureServe runs rounds of the serve traffic — each against a fresh
// daemon on an empty cache — while another round fits in the measurement
// time. Traced runs alternate untraced and traced rounds.
func (r *run) measureServe() {
	base := filepath.Join(outDir, "tmp")
	var rec *recorder
	if r.trace {
		rec = newRecorder()
	}
	first := map[int]*serve.Payload{}
	sjobs := make([]*serve.Job, len(r.jobs))
	for i := range r.jobs {
		sjobs[i] = r.jobs[i].serveJob()
	}
	var plain, traced []round
	start := time.Now()
	var roundDur time.Duration
	minRounds := 1
	if r.trace {
		minRounds = 2 // one untraced and one traced
	}
	for i := 0; i < minRounds || time.Since(start)+roundDur <= r.seconds; i++ {
		var rc *recorder
		if r.trace && i%2 == 1 {
			rc = rec
		}
		cal := -1
		if !r.trace {
			for k := 0; k < serveCalSamples; k++ {
				cal = r.cal.sample()
			}
		}
		rs := time.Now()
		order := serveOrder(r.jobs, r.seed, i)
		r.orders = append(r.orders, order)
		r.startPeakRSS()
		rd, err := runRound(base, sjobs, order, r.clients, rc)
		if rc == nil {
			r.endPeakRSS()
		}
		roundDur = time.Since(rs)
		if err != nil {
			r.attempted++
			r.fail("round %d: %v", i, err)
			break
		}
		for k, rq := range rd.reqs {
			r.attempted++
			if err := checkRequest(rq, r.prep[rq.job], first); err != nil {
				r.fail("%s request: %v", r.prep[rq.job].ID, err)
			}
			if rq.resp != nil {
				// Checked; only the first payload per job is kept.
				rd.reqs[k].resp.Payload = nil
			}
		}
		if rc != nil {
			traced = append(traced, rd)
		} else {
			rd.cal = cal
			plain = append(plain, rd)
		}
	}
	if rec != nil {
		r.spans = rec.finish()
	} else {
		for k := 0; k < serveCalSamples; k++ {
			r.cal.sample()
		}
		for k := range plain {
			plain[k].scale = r.cal.scale(r.cal.wall, plain[k].cal, plain[k].cal+1)
		}
	}
	if len(r.failures) > 0 {
		return
	}

	var acc layout.Accuracy
	var cycleRatios []float64
	counts := map[string]int{}
	for i, j := range r.prep {
		pay := first[i]
		b, _ := json.Marshal(pay)
		sum := sha256.Sum256(b)
		r.perJob[j.ID] = hex.EncodeToString(sum[:])
		a, slots, err := scorePayload(pay, j)
		if err != nil {
			r.fail("%s: %v", j.ID, err)
			continue
		}
		acc.Add(a)
		counts["symbolize.slots"] += slots
		counts["funcrec.funcs"] += pay.Funcs
		counts["core.degraded_funcs"] += len(pay.Degraded)
		if j.Kind == "recompile" {
			counts["codegen.insns"] += pay.CodeLen
			cycleRatios = append(cycleRatios, float64(pay.Cycles)/float64(j.native[len(j.native)-1].Cycles))
		}
	}
	if r.trace {
		r.serveLayers(plain, traced, counts)
		return
	}
	// Every serve timing is taken per round, then summarised over the rounds.
	// Every timing is brought to the reference host speed with its round's
	// factor.
	var p50s, p90s []float64
	var executed, requests, wallS, rawWallS float64
	coldMs := map[int][]float64{}
	for _, rd := range plain {
		executed += float64(rd.stats.Executed)
		requests += float64(len(rd.reqs))
		wallS += rd.wall.Seconds() * rd.scale
		rawWallS += rd.wall.Seconds()
		var lats []float64
		for _, q := range rd.reqs {
			lats = append(lats, ms(q.lat)*rd.scale)
		}
		p50s = append(p50s, percentile(lats, 0.5))
		p90s = append(p90s, percentile(lats, 0.9))
		r.rounds = append(r.rounds, map[string]float64{
			"wall_ms": ms(rd.wall), "executed": float64(rd.stats.Executed), "joins": float64(rd.stats.DedupJoins),
			"warm": float64(rd.stats.WarmHits), "p50_ms": p50s[len(p50s)-1], "p90_ms": p90s[len(p90s)-1],
			"scale": rd.scale,
		})
		for i, t := range executedMs(rd) {
			if r.prep[i].Kind == "recompile" {
				coldMs[i] = append(coldMs[i], t*rd.scale)
			}
		}
	}
	var recompileMs []float64
	for _, v := range coldMs {
		recompileMs = append(recompileMs, median(v))
	}
	r.rep.add("jobs_per_s", "1/s", executed/wallS)
	r.rep.add("recompile_ms.geomean", "ms", geomean(recompileMs))
	r.rep.add("request_ms.p50", "ms", median(p50s))
	r.rep.add("request_ms.p90", "ms", median(p90s))
	r.rep.add("requests_per_s", "1/s", requests/wallS)
	r.addQuality(cycleRatios, acc, layout.TypeAccuracy{})
	r.notes = append(r.notes, fmt.Sprintf("%d rounds of %d requests from %d closed-loop clients, %d distinct jobs",
		len(plain), len(r.orders[0]), r.clients, len(r.prep)),
		fmt.Sprintf("unscaled wall clock: requests_per_s %.4g", requests/rawWallS))
}

// executedMs returns, per job, the daemon-reported handling time of the
// round's one execution of it (joined requests share the leader's stats).
func executedMs(rd round) map[int]float64 {
	out := map[int]float64{}
	for _, q := range rd.reqs {
		if !q.resp.Stats.Warm {
			out[q.job] = q.resp.Stats.TotalMs
		}
	}
	return out
}

// serveLayers reports the serve workload's per-layer metrics. Stage events
// carry no request identity and the daemon runs up to two jobs at once, so
// stage busy time and allocation are aggregated per stage over each traced
// round, not per request; allocation is the whole process's during each
// stage interval and so over-counts where stages overlap. opt, codegen and
// the validating runs happen inside the daemon with no events: they are
// part of core.unattributed_ms here.
func (r *run) serveLayers(plain, traced []round, counts map[string]int) {
	busy := map[string]float64{}
	allocMB := map[string]float64{}
	var unattributed, jobMs float64
	n := float64(len(traced))
	for _, rd := range traced {
		exec := 0.0
		for _, v := range executedMs(rd) {
			exec += v
		}
		spans := 0.0
		for l, d := range rd.use.Busy {
			busy[l] += ms(d) / n
			spans += ms(d)
		}
		for l, b := range rd.use.Alloc {
			allocMB[l] += float64(b) / (1 << 20) / n
		}
		unattributed += (exec - spans) / n
		jobMs += exec / n
	}
	var waits []float64
	reqs, warm := 0, 0
	var joins, puts, hits, lookups, fhits, flookups float64
	var tw, pw []float64
	for k, rds := range [][]round{plain, traced} {
		for _, rd := range rds {
			for _, q := range rd.reqs {
				reqs++
				if q.resp.Stats.Warm {
					warm++
				}
				waits = append(waits, ms(q.lat)-q.resp.Stats.TotalMs)
			}
			joins += float64(rd.stats.DedupJoins)
			puts += float64(rd.cache.Puts)
			hits += float64(rd.cache.Hits)
			lookups += float64(rd.cache.Hits + rd.cache.Misses)
			seen := map[int]bool{}
			for _, q := range rd.reqs {
				if !q.resp.Stats.Warm && !seen[q.job] {
					seen[q.job] = true
					fhits += float64(q.resp.Stats.FuncHits)
					flookups += float64(q.resp.Stats.FuncHits + q.resp.Stats.FuncMisses)
				}
			}
			if k == 0 {
				pw = append(pw, ms(rd.wall))
			} else {
				tw = append(tw, ms(rd.wall))
			}
		}
	}
	rounds := float64(len(plain) + len(traced))
	r.addLayerMetrics(busy, allocMB, counts, unattributed, jobMs, 0, ratio(median(tw), median(pw)),
		map[string]float64{
			"serve.queue_wait_ms":     median(waits),
			"serve.warm_ratio":        ratio(float64(warm), float64(reqs)),
			"serve.dedup_joins":       joins / rounds,
			"refcache.hit_ratio":      ratio(hits, lookups),
			"refcache.puts":           puts / rounds,
			"refcache.func_hit_ratio": ratio(fhits, flookups),
		})
	r.notes = append(r.notes, fmt.Sprintf("serve: %d untraced and %d traced rounds; stage spans aggregated per stage, not per request (events carry no request id and up to %d jobs run at once)",
		len(plain), len(traced), r.clients))
}
