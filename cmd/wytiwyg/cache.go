package main

import (
	"fmt"

	"wytiwyg/internal/core"
	"wytiwyg/internal/refcache"
)

// openCache resolves the -cache/-cache-dir flags into a cache handle, or
// nil when caching is disabled.
func openCache(enabled bool, dir string) *refcache.Cache {
	if !enabled && dir == "" {
		return nil
	}
	if dir == "" {
		d, err := refcache.DefaultDir()
		if err != nil {
			fail("cache: %v", err)
		}
		dir = d
	}
	c, err := refcache.Open(dir)
	if err != nil {
		fail("cache: %v", err)
	}
	return c
}

// printTimings prints the per-stage wall-clock breakdown of one run and
// marks the stage whose time includes the VSA fixpoint: the vsa stage
// computes it once per function and the typerec stage reuses it, or,
// without -vsa, the typerec stage computes it.
func printTimings(p *core.Pipeline) {
	fixStage := ""
	switch {
	case p.VSA:
		fixStage = "vsa"
	case p.Types:
		fixStage = "typerec"
	}
	fmt.Println("stage timings:")
	for _, st := range p.Times {
		fmt.Printf("  %-10s %s", st.Stage, st.Elapsed)
		if st.Stage == fixStage {
			fmt.Print(" (includes the VSA fixpoint)")
		}
		fmt.Println()
	}
}
