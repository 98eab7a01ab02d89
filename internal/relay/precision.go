package relay

import (
	"repro/internal/minic/ast"
	"repro/internal/minic/types"
)

// This file exports the RELAY internals the precision passes
// (internal/escape) and the certifier's discharge check re-derive their
// facts from: the per-root materialized accesses detectRaces pairs up, the
// spawn-multiplicity facts, and the symbolic lock-representative grammar.
// Keeping them here avoids duplicating the materialization and naming
// logic while leaving the consumers free of relay's private state.

// RootAccess is one summary access materialized at a thread root, with the
// absolute lockset it holds there (entry holds no locks, so the absolute
// lockset is the access's plus set). These are exactly the accesses
// detectRaces generated pairs from, in the same order.
type RootAccess struct {
	Root *types.FuncInfo
	Acc  *Access
}

// RootAccesses re-materializes the per-root accesses of the analyzed
// program from the function summaries the report carries.
func (r *Report) RootAccesses() []RootAccess {
	var all []RootAccess
	for _, root := range r.CG.Roots {
		sum := r.Summaries[root]
		if sum == nil {
			continue
		}
		for _, sa := range sum.Accesses {
			all = append(all, RootAccess{Root: root, Acc: &Access{
				Fn:      sa.fn,
				Node:    sa.node,
				Stmt:    sa.stmt,
				Write:   sa.write,
				Objs:    sa.objs,
				Lockset: sa.plus,
				Pos:     sa.pos,
			}})
		}
	}
	return all
}

// SummariesComplete reports whether every function summary stayed below
// the access cap. A capped summary may have dropped accesses, so any
// whole-program reasoning over RootAccesses (escape seeding, post-spawn
// write collection) must fail closed when this is false.
func (r *Report) SummariesComplete() bool {
	for _, s := range r.Summaries {
		if s != nil && len(s.Accesses) >= maxSummaryAccesses {
			return false
		}
	}
	return true
}

// MultiInstanceRoots reports, per thread root, whether more than one
// instance may run concurrently — the same facts detectRaces uses to
// decide whether a root can race with itself.
func (r *Report) MultiInstanceRoots() map[*types.FuncInfo]bool {
	return spawnMultiplicity(r.Info, r.CG)
}

// LockRep resolves an expression to RELAY's symbolic lock representative
// in fn's naming (G#g, L#fn#x, P@i, with .field / [const] / ld(...)
// suffix structure), exactly as the summary walk names acquired locks.
// ok=false means the grammar cannot name the expression.
func (r *Report) LockRep(e ast.Expr, fn *types.FuncInfo) (string, bool) {
	rl := &analyzer{info: r.Info, pta: r.PTA}
	return rl.valueRep(e, fn)
}
