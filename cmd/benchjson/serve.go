package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"wytiwyg/internal/refcache"
	"wytiwyg/internal/serve"
)

// The -serve mode measures the recompilation daemon (internal/serve):
// for each program, one cold submission that runs the full pipeline and
// one identical warm submission answered from the shared response cache.
// The interesting numbers are the cold/warm latency gap — the daemon's
// whole value proposition — and the hit rates on both sides. The numbers
// land in the artifact's "serve" section (conventionally
// BENCH_serve.json).

// servePrograms is the measured corpus slice: small enough for a CI
// smoke run, varied enough to exercise different pipeline shapes.
var servePrograms = []string{"mcf", "bzip2", "libquantum"}

// ServeSection is one program's daemon measurements.
type ServeSection struct {
	// Program is the benchmark name.
	Program string `json:"program"`
	// ColdMs is the end-to-end latency of the first submission (full
	// pipeline execution); WarmMs is the latency of the identical repeat
	// submission (response-cache read, no pipeline).
	ColdMs float64 `json:"cold_ms"`
	// WarmMs is the warm-path latency (see ColdMs).
	WarmMs float64 `json:"warm_ms"`
	// Speedup is ColdMs over WarmMs.
	Speedup float64 `json:"speedup"`
	// FuncMisses counts the functions the cold run had to compute (its
	// per-function cache found nothing: the cache starts empty).
	FuncMisses int `json:"func_misses"`
	// WarmHitRate is the warm response's reported hit rate (1.0: the
	// whole payload came from the cache).
	WarmHitRate float64 `json:"warm_hit_rate"`
}

// serveSections starts a daemon on a throwaway socket and cache and
// measures every program against it.
func serveSections() ([]ServeSection, error) {
	dir, err := os.MkdirTemp("", "wytiwyg-benchserve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cache, err := refcache.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("unix", filepath.Join(dir, "d.sock"))
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Cache: cache})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	c := serve.Dial("unix:" + filepath.Join(dir, "d.sock"))
	if err := c.WaitReady(5 * time.Second); err != nil {
		return nil, err
	}

	out := make([]ServeSection, 0, len(servePrograms))
	for _, name := range servePrograms {
		sec, err := serveOne(c, name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, sec)
	}
	if err := c.Shutdown(); err != nil {
		return nil, err
	}
	if err := <-done; err != nil {
		return nil, err
	}
	return out, nil
}

// roundMs renders a duration as milliseconds with two decimals.
func roundMs(d time.Duration) float64 { return round2(float64(d.Microseconds()) / 1000) }

// serveOne submits one program's recompile job twice: cold, then warm.
func serveOne(c *serve.Client, name string) (ServeSection, error) {
	submit := func() (*serve.Response, float64, error) {
		start := time.Now()
		resp, err := c.Submit(&serve.Job{Kind: serve.KindRecompile, Bench: name})
		if err != nil {
			return nil, 0, err
		}
		if resp.Error != "" {
			return nil, 0, fmt.Errorf("daemon: %s", resp.Error)
		}
		return resp, roundMs(time.Since(start)), nil
	}
	cold, coldMs, err := submit()
	if err != nil {
		return ServeSection{}, err
	}
	if cold.Stats.Warm {
		return ServeSection{}, fmt.Errorf("first submission served warm from a fresh cache")
	}
	warm, warmMs, err := submit()
	if err != nil {
		return ServeSection{}, err
	}
	if !warm.Stats.Warm {
		return ServeSection{}, fmt.Errorf("repeat submission not served warm")
	}
	sec := ServeSection{
		Program:     name,
		ColdMs:      coldMs,
		WarmMs:      warmMs,
		FuncMisses:  cold.Stats.FuncMisses,
		WarmHitRate: warm.Stats.HitRate,
	}
	if warmMs > 0 {
		sec.Speedup = round2(coldMs / warmMs)
	}
	return sec, nil
}

// writeServe merges a freshly measured "serve" section into the
// artifact, leaving the other sections untouched.
func writeServe(path string) error {
	sections, err := serveSections()
	if err != nil {
		return err
	}
	f, err := readArtifact(path)
	if err != nil {
		return err
	}
	f.Serve = sections
	return writeArtifact(path, f, fmt.Sprintf("serve section for %d programs", len(sections)))
}
