// Package analysis is the static dataflow-analysis layer: a reusable
// lattice-based fixpoint engine over the IR's CFG plus a suite of concrete
// analyses that audit the pipeline's own output. WYTIWYG's refinements are
// dynamic — layouts recovered from traces are only as good as the traces
// (paper §5) — so an unsound symbolization can silently miscompile until a
// bad input hits it at run time. The analyses here act as the static gate
// the paper's soundness discussion calls for: they prove (or flag) the
// recovered stack layouts before code generation instead of discovering
// problems as crashes in the interpreter or the recompiled binary.
//
// The layer has four clients wired into the pipeline:
//
//   - stack-height analysis (stackheight.go) re-derives every function's
//     sp0-relative reference offsets by abstract interpretation and rejects
//     frames whose recovered extent disagrees with them;
//   - the bounds checker (bounds.go) runs an interval analysis over the
//     symbolized IR and proves every stack load/store lands inside its
//     recovered object, or reports where it cannot;
//   - definite-initialization (initcheck.go) flags loads from stack slots
//     that no path has stored to;
//   - escape and dead-store analysis (escape.go, deadstore.go) compute the
//     facts that make the optimizer's promotion and store-elimination
//     decisions provably safe rather than heuristic.
//
// The forward value analyses — stack heights, bounds, and the value-set
// analysis in internal/vsa — keep their per-block state in one Env type
// (env.go): a slice indexed by ir.Value.Slot with a presence bit per slot,
// validated by the function's Slots owner table, so cloning a state is
// two slice copies and a join walks only the values present. An absent
// value is bottom, as a missing map key would be, so the fixpoints and
// the widening schedule are those of per-value maps.
//
// Diagnostics carry stable func:block:idx locations (ir.Value.Location) and
// render as text or JSON (diag.go); Lint (lint.go) bundles the checks into
// the pipeline's post-refinement verification stage and the `wytiwyg lint`
// subcommand.
package analysis

import "wytiwyg/internal/ir"

// rpo returns f's blocks in reverse post order (entry first), restricted to
// reachable blocks.
func rpo(f *ir.Func) []*ir.Block {
	seen := make(map[*ir.Block]bool, len(f.Blocks))
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			dfs(s)
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// uses maps each value to its consumers within f.
func uses(f *ir.Func) map[*ir.Value][]*ir.Value {
	u := make(map[*ir.Value][]*ir.Value)
	add := func(user *ir.Value) {
		for _, a := range user.Args {
			u[a] = append(u[a], user)
		}
	}
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			add(v)
		}
		for _, v := range b.Insts {
			add(v)
		}
	}
	return u
}

// constOf unwraps a constant operand.
func constOf(v *ir.Value) (int32, bool) {
	if v.Op == ir.OpConst {
		return v.Const, true
	}
	return 0, false
}
