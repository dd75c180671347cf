package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wytiwyg/internal/layout"
	"wytiwyg/internal/refcache"
	"wytiwyg/internal/serve"
)

// daemon is one in-process serve.Server on a unix socket over a fresh,
// empty cache directory.
type daemon struct {
	dir   string
	sock  string
	cache *refcache.Cache
	srv   *serve.Server
	done  chan error
}

// startDaemon creates a fresh cache directory under base and starts a
// daemon on it, waiting until it answers health checks.
func startDaemon(base string, workers int, rec *recorder) (*daemon, error) {
	dir, err := os.MkdirTemp(base, "round-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, sock: filepath.Join(dir, "d.sock"), done: make(chan error, 1)}
	if d.cache, err = refcache.Open(filepath.Join(dir, "cache")); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	l, err := net.Listen("unix", d.sock)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cfg := serve.Config{Cache: d.cache, Jobs: 1, Workers: workers}
	if rec != nil {
		cfg.Observer = rec.observe
	}
	d.srv = serve.New(cfg)
	go func() { d.done <- d.srv.Serve(l) }()
	if err := serve.Dial("unix:" + d.sock).WaitReady(10 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the daemon, waits for Serve to return and removes its
// directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// request is one client submission and what came back.
type request struct {
	job  int
	lat  time.Duration
	resp *serve.Response
	err  error
}

// round is one pass of the serve traffic against a fresh daemon.
type round struct {
	wall  time.Duration
	reqs  []request
	stats serve.ServerStats
	cache refcache.Stats
	use   layerUse // traced rounds only
	cal   int      // untraced rounds: the last calibration sample before the round
	scale float64  // untraced rounds: factor to the reference host speed
}

// serveJob is the request a generated job submits.
func (j *Job) serveJob() *serve.Job {
	sj := &serve.Job{Kind: j.Kind, Profile: j.Profile, Inputs: j.Inputs}
	if j.Increment != 0 {
		sj.Source = j.source()
	} else {
		sj.Bench = j.Program
	}
	return sj
}

// runRound starts a daemon on an empty cache and drives the submission
// order through it from a closed loop of clients: each client submits its
// next request only once the previous one has been answered.
func runRound(base string, jobs []*serve.Job, order []int, clients int, rec *recorder) (round, error) {
	var rd round
	runtime.GC() // start every round from a collected heap
	d, err := startDaemon(base, clients, rec)
	if err != nil {
		return rd, fmt.Errorf("start daemon: %w", err)
	}
	span := -1
	if rec != nil {
		span = rec.enter("round", -1)
	}
	rd.reqs = make([]request, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		cl := serve.Dial("unix:" + d.sock)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				t := time.Now()
				resp, err := cl.Submit(jobs[order[i]])
				rd.reqs[i] = request{job: order[i], lat: time.Since(t), resp: resp, err: err}
			}
		}()
	}
	wg.Wait()
	rd.wall = time.Since(start)
	if rec != nil {
		rd.use = rec.children(rec.leave(span))
	}
	rd.stats = d.srv.Stats()
	rd.cache = d.cache.Stats()
	if err := d.stop(); err != nil {
		return rd, fmt.Errorf("stop daemon: %w", err)
	}
	return rd, nil
}

// checkRequest verifies one response: no error, a payload byte-identical
// to the first payload seen for the same job (cold or warm, in any round),
// and for recompile jobs a recompiled run equal to the input binary's
// native run on the last input.
func checkRequest(rq request, j *prepared, first map[int]*serve.Payload) error {
	if rq.err != nil {
		return rq.err
	}
	if rq.resp.Error != "" {
		return fmt.Errorf("daemon: %s", rq.resp.Error)
	}
	if rq.resp.Payload == nil {
		return fmt.Errorf("daemon: response without payload")
	}
	if ref, ok := first[rq.job]; !ok {
		first[rq.job] = rq.resp.Payload
	} else if !bytes.Equal(mustMarshal(ref), mustMarshal(rq.resp.Payload)) {
		return fmt.Errorf("payload differs from the first payload for the same job (warm=%v)", rq.resp.Stats.Warm)
	}
	if j.Kind == "recompile" {
		pay, nat := rq.resp.Payload, j.native[len(j.native)-1]
		if !pay.Match || pay.Output != nat.Output || pay.ExitCode != nat.Exit {
			return fmt.Errorf("recompiled exit=%d output %q, input binary exit=%d output %q",
				pay.ExitCode, pay.Output, nat.Exit, nat.Output)
		}
	}
	return nil
}

// frameVar matches one variable of a rendered layout.Frame.
var frameVar = regexp.MustCompile(`(\S+)@\[(-?\d+),(-?\d+)\)`)

// payloadLayout parses a payload's rendered frames back into a layout.
func payloadLayout(pay *serve.Payload) (*layout.Program, error) {
	prog := layout.NewProgram()
	for _, line := range pay.Layout {
		var fn string
		if _, err := fmt.Sscanf(line, "frame %s", &fn); err != nil {
			return nil, fmt.Errorf("layout line %q: %w", line, err)
		}
		fr := &layout.Frame{Func: fn[:len(fn)-1]} // drop the trailing ':'
		for _, m := range frameVar.FindAllStringSubmatch(line, -1) {
			lo, _ := strconv.Atoi(m[2])
			hi, _ := strconv.Atoi(m[3])
			fr.Vars = append(fr.Vars, layout.Var{Name: m[1], Offset: int32(lo), Size: uint32(hi - lo)})
		}
		prog.Add(fr)
	}
	return prog, nil
}

// scorePayload compares a payload's recovered layout with the input
// binary's ground truth over the payload's functions. This is the layout
// before optimization: the daemon's payload carries no post-optimization
// frames.
func scorePayload(pay *serve.Payload, j *prepared) (layout.Accuracy, int, error) {
	rec, err := payloadLayout(pay)
	if err != nil {
		return layout.Accuracy{}, 0, err
	}
	truth := layout.NewProgram()
	slots := 0
	for name, fr := range rec.Frames {
		slots += len(fr.Vars)
		if tf := j.img.Truth.Frame(name); tf != nil {
			truth.Add(tf)
		}
	}
	return layout.Compare(truth, rec), slots, nil
}

// mustMarshal encodes a payload; a payload is plain data, so encoding
// cannot fail.
func mustMarshal(p *serve.Payload) []byte {
	b, err := json.Marshal(p)
	if err != nil {
		panic(err)
	}
	return b
}
