package main

import (
	"runtime/metrics"
	"sync"
	"time"

	"wytiwyg/internal/core"
)

// stageLayer maps a pipeline stage (core.StageEvent.Stage) onto the module
// that does its work. The trace and cfg stages are both the tracer's; lint
// runs inside the symbolize stage, so it is billed there.
var stageLayer = map[string]string{
	"trace": "tracer", "cfg": "tracer", "funcrec": "funcrec", "coldrec": "coldrec",
	"lift": "lifter", "regsave": "regsave", "varargs": "varargs", "stackref": "stackref",
	"symbolize": "symbolize", "vsa": "vsa", "typerec": "typerec",
}

// span is one traced interval: the run, a round or job below it, or a
// layer's stage below a job. Times are microseconds since the run began.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for the run span
	Job    int     `json:"job"`    // generated job index; -1 when not attributable
	Name   string  `json:"name"`   // "run", "round", "job" or a layer name
	Stage  string  `json:"stage,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	AllocB uint64  `json:"alloc_bytes,omitempty"`
}

// dur returns the span's length.
func (s *span) dur() time.Duration { return time.Duration((s.End - s.Start) * 1e3) }

// recorder collects spans in memory; they are written out once, with the
// run's results. Stage spans arrive through the pipeline's Observer hook
// and the benchmark's own timers around opt, codegen and the validating
// machine runs. All methods are goroutine-safe.
type recorder struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	open   map[string][]int // stage name → indexes of its open spans
	parent int              // span new stage spans hang under
	job    int              // job index new stage spans belong to
	sample []metrics.Sample
}

// newRecorder starts a recording whose root is the run span.
func newRecorder() *recorder {
	r := &recorder{
		t0:     time.Now(),
		open:   make(map[string][]int),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
		job:    -1,
	}
	r.parent = r.spans[r.beginLocked("run", "", 0, -1)].ID
	return r
}

// allocLocked reads the process's cumulative heap allocation.
func (r *recorder) allocLocked() uint64 {
	metrics.Read(r.sample)
	return r.sample[0].Value.Uint64()
}

func (r *recorder) now() float64 { return float64(time.Since(r.t0).Nanoseconds()) / 1e3 }

// beginLocked opens a span and returns its index. While open, AllocB holds
// the allocation counter at its start.
func (r *recorder) beginLocked(name, stage string, parent, job int) int {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Job: job, Name: name, Stage: stage,
		Start: r.now(), AllocB: r.allocLocked(),
	})
	return len(r.spans) - 1
}

// endLocked closes the span at index i.
func (r *recorder) endLocked(i int) {
	r.spans[i].End = r.now()
	r.spans[i].AllocB = r.allocLocked() - r.spans[i].AllocB
}

// enter opens a round or job span under the run span and makes it the
// parent of the stage spans that follow; leave closes it.
func (r *recorder) enter(name string, job int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.beginLocked(name, "", 1, job)
	r.parent, r.job = r.spans[i].ID, job
	return i
}

// leave closes a span opened by enter and returns its ID.
func (r *recorder) leave(i int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endLocked(i)
	r.parent, r.job = 1, -1
	return r.spans[i].ID
}

// observe is the core.Options.Observer hook. Stage events carry no request
// identity, so concurrent instances of one stage pair last-in-first-out;
// an individual interval may then be mis-paired, but each stage's summed
// duration (Σ finish − Σ start) is exact.
func (r *recorder) observe(ev core.StageEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch ev.Action {
	case "start":
		layer, ok := stageLayer[ev.Stage]
		if !ok {
			layer = ev.Stage
		}
		r.open[ev.Stage] = append(r.open[ev.Stage], r.beginLocked(layer, ev.Stage, r.parent, r.job))
	case "finish":
		stack := r.open[ev.Stage]
		if len(stack) == 0 {
			return
		}
		r.endLocked(stack[len(stack)-1])
		r.open[ev.Stage] = stack[:len(stack)-1]
	}
}

// timed runs fn inside a layer span the benchmark times itself, under the
// current parent.
func (r *recorder) timed(layer string, fn func()) {
	r.mu.Lock()
	i := r.beginLocked(layer, "", r.parent, r.job)
	r.mu.Unlock()
	fn()
	r.mu.Lock()
	r.endLocked(i)
	r.mu.Unlock()
}

// layerUse is one parent span's children summed by layer.
type layerUse struct {
	Busy  map[string]time.Duration
	Alloc map[string]uint64
	// Self is the parent's duration not covered by any child: for a job,
	// the pipeline work no layer span accounts for.
	Self time.Duration
	// Dur is the parent's own duration.
	Dur time.Duration
}

// children sums the spans directly below the span with the given ID.
func (r *recorder) children(id int) layerUse {
	r.mu.Lock()
	defer r.mu.Unlock()
	u := layerUse{Busy: map[string]time.Duration{}, Alloc: map[string]uint64{}}
	var covered time.Duration
	for i := range r.spans {
		s := &r.spans[i]
		if s.Parent != id {
			continue
		}
		u.Busy[s.Name] += s.dur()
		u.Alloc[s.Name] += s.AllocB
		covered += s.dur()
	}
	u.Dur = r.spans[id-1].dur()
	u.Self = u.Dur - covered
	return u
}

// finish closes the run span and returns every span recorded.
func (r *recorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endLocked(0)
	return r.spans
}
