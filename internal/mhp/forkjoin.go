package mhp

import (
	"repro/internal/minic/ast"
	"repro/internal/minic/token"
	"repro/internal/minic/types"
	"repro/internal/relay"
)

// Fork/join ordering.
//
// main runs exactly once and its body top level executes sequentially, so
// the top-level statement index of main is a timeline: everything inside
// statement i happens-before everything inside statement j > i. The
// analysis places three kinds of events on that timeline:
//
//   - accesses performed by the main thread (directly in main, or in a
//     function main's statement i calls — spawn edges excluded, because a
//     spawned function's work belongs to the child),
//   - the spawn sites of each thread root R, and
//   - join points proven to wait for *every* instance of R.
//
// From those, three happens-before facts follow:
//
//	pre-fork:     a main access wholly before every spawn of R cannot run
//	              concurrently with R;
//	join-ordered: a main access wholly after a proven join-all of R cannot
//	              run concurrently with R;
//	window-disjoint: if all of R1 is joined before the first spawn of R2,
//	              no R1 access runs concurrently with any R2 access.
//
// Join-all proofs are deliberately syntactic and fail closed. Two shapes
// are recognized:
//
//	scalar: t = spawn(R, ...) at top level, where t is never address-taken
//	        and the spawn is its only write anywhere in the program, matched
//	        with an unconditional top-level join(t) at a later index;
//	loop:   for (v = 0; v < E; v++) { arr[v] = spawn(R, ...); } matched
//	        with a later top-level loop with an identical printed header
//	        whose body is exactly join(arr[v]), where every use of arr in
//	        the whole program is a spawn-store or join-load element access,
//	        no arr store lands between the two loops, and E's free
//	        variables are frozen (written only before the spawn loop).
//
// Anything else — escaping handles, conditional spawns or joins, handle
// arrays that alias — yields no proof, and the pairs are kept.

type forkJoin struct {
	rep  *relay.Report
	main *types.FuncInfo

	// topIdx maps every AST node in main's body to the index of the
	// top-level statement containing it.
	topIdx map[ast.NodeID]int

	// reach maps a function to the set of main top-level statement
	// indices whose call closure (call edges only) reaches it.
	reach map[*types.FuncInfo]map[int]bool

	// spawnSites lists, per thread root, its spawn call sites with the
	// enclosing function.
	spawnSites map[*types.FuncInfo][]spawnSite

	// minSpawn is the smallest main top-level index containing a spawn of
	// the root; present only when every spawn site of the root is in main.
	minSpawn map[*types.FuncInfo]int

	// joinAll is the main top-level index after which every instance of
	// the root has provably terminated; present only when every spawn
	// site of the root is matched by a proven join.
	joinAll map[*types.FuncInfo]int
}

type spawnSite struct {
	caller *types.FuncInfo
	call   *ast.Call
	// targets are the roots this site may start (usually exactly one).
	targets []*types.FuncInfo
}

func newForkJoin(rep *relay.Report) *forkJoin {
	fj := &forkJoin{
		rep:        rep,
		main:       rep.Info.Funcs["main"],
		topIdx:     make(map[ast.NodeID]int),
		reach:      make(map[*types.FuncInfo]map[int]bool),
		spawnSites: make(map[*types.FuncInfo][]spawnSite),
		minSpawn:   make(map[*types.FuncInfo]int),
		joinAll:    make(map[*types.FuncInfo]int),
	}
	if fj.main == nil {
		return fj
	}
	fj.indexMain()
	fj.collectSpawns()
	fj.proveJoins()
	return fj
}

// indexMain assigns every node in main's body its top-level statement
// index and computes, per top-level statement, which functions its call
// closure reaches.
func (fj *forkJoin) indexMain() {
	for i, s := range fj.main.Decl.Body.Stmts {
		idx := i
		var direct []*types.FuncInfo
		ast.Inspect(s, func(n ast.Node) bool {
			fj.topIdx[n.ID()] = idx
			if call, ok := n.(*ast.Call); ok {
				direct = append(direct, fj.callTargets(call)...)
			}
			return true
		})
		// Closure over call edges (spawn edges excluded: the spawned
		// function's execution is not part of this statement's work).
		seen := make(map[*types.FuncInfo]bool)
		var dfs func(f *types.FuncInfo)
		dfs = func(f *types.FuncInfo) {
			if f == nil || seen[f] {
				return
			}
			seen[f] = true
			for _, callee := range fj.rep.CG.CalleesOf(f) {
				dfs(callee)
			}
		}
		for _, f := range direct {
			dfs(f)
		}
		for f := range seen {
			set := fj.reach[f]
			if set == nil {
				set = make(map[int]bool)
				fj.reach[f] = set
			}
			set[idx] = true
		}
	}
}

// callTargets resolves the non-builtin functions a call may invoke.
func (fj *forkJoin) callTargets(call *ast.Call) []*types.FuncInfo {
	info := fj.rep.Info
	if target := info.CallTargets[call.ID()]; target != nil {
		if target.Kind == types.ObjFunc {
			return []*types.FuncInfo{info.Funcs[target.Name]}
		}
		return nil // builtin
	}
	return fj.rep.PTA.CallTargets[call.ID()]
}

// collectSpawns groups the call graph's spawn edges by site and computes
// minSpawn for roots spawned only from main.
func (fj *forkJoin) collectSpawns() {
	bySite := make(map[ast.NodeID]*spawnSite)
	var order []ast.NodeID
	for _, e := range fj.rep.CG.Edges {
		if !e.Spawn {
			continue
		}
		s := bySite[e.Site.ID()]
		if s == nil {
			s = &spawnSite{caller: e.Caller, call: e.Site}
			bySite[e.Site.ID()] = s
			order = append(order, e.Site.ID())
		}
		s.targets = append(s.targets, e.Callee)
	}
	for _, id := range order {
		s := bySite[id]
		for _, r := range s.targets {
			fj.spawnSites[r] = append(fj.spawnSites[r], *s)
		}
	}
	for root, sites := range fj.spawnSites {
		min, ok := -1, true
		for _, s := range sites {
			if s.caller != fj.main {
				ok = false
				break
			}
			idx, in := fj.topIdx[s.call.ID()]
			if !in {
				ok = false
				break
			}
			if min < 0 || idx < min {
				min = idx
			}
		}
		if ok && min >= 0 {
			fj.minSpawn[root] = min
		}
	}
}

// ---------------------------------------------------------------------------
// Join-all proofs

func (fj *forkJoin) proveJoins() {
	// joinOf[siteID] = top-level index of a proven join for that spawn.
	joinOf := make(map[ast.NodeID]int)

	stmts := fj.main.Decl.Body.Stmts
	for i, s := range stmts {
		if v, call := fj.scalarSpawn(s); v != nil {
			fj.proveScalarJoin(v, call, i, joinOf)
		}
		if m := fj.loopSpawn(s); m != nil {
			fj.proveLoopJoin(m, i, joinOf)
		}
	}

	for root, sites := range fj.spawnSites {
		if _, ok := fj.minSpawn[root]; !ok {
			continue // some spawn outside main: no join window
		}
		max, ok := -1, true
		for _, s := range sites {
			j, matched := joinOf[s.call.ID()]
			if !matched {
				ok = false
				break
			}
			if j > max {
				max = j
			}
		}
		if ok && max >= 0 {
			fj.joinAll[root] = max
		}
	}
}

// scalarSpawn matches `t = spawn(...)` / `int t = spawn(...)` at top
// level, returning the handle object and the spawn call.
func (fj *forkJoin) scalarSpawn(s ast.Stmt) (*types.Object, *ast.Call) {
	switch s := s.(type) {
	case *ast.DeclStmt:
		if call, ok := fj.asSpawnCall(s.Decl.Init); ok {
			return fj.rep.Info.Objects[s.Decl.ID()], call
		}
	case *ast.AssignStmt:
		if s.Op != token.ASSIGN {
			return nil, nil
		}
		id, ok := s.LHS.(*ast.Ident)
		if !ok {
			return nil, nil
		}
		if call, ok := fj.asSpawnCall(s.RHS); ok {
			return fj.rep.Info.Uses[id.ID()], call
		}
	}
	return nil, nil
}

func (fj *forkJoin) asSpawnCall(e ast.Expr) (*ast.Call, bool) {
	call, ok := e.(*ast.Call)
	if !ok {
		return nil, false
	}
	t := fj.rep.Info.CallTargets[call.ID()]
	if t == nil || t.Builtin != types.BSpawn {
		return nil, false
	}
	return call, true
}

func (fj *forkJoin) asJoinCall(e ast.Expr) (*ast.Call, bool) {
	call, ok := e.(*ast.Call)
	if !ok {
		return nil, false
	}
	t := fj.rep.Info.CallTargets[call.ID()]
	if t == nil || t.Builtin != types.BJoin {
		return nil, false
	}
	return call, true
}

// proveScalarJoin matches the earliest unconditional top-level join(t)
// after the spawn, provided t never escapes and the spawn is t's only
// write anywhere in the program.
func (fj *forkJoin) proveScalarJoin(v *types.Object, call *ast.Call, spawnIdx int, joinOf map[ast.NodeID]int) {
	if v == nil || v.AddrTaken {
		return
	}
	if fj.writeCount(v) != 1 {
		return
	}
	stmts := fj.main.Decl.Body.Stmts
	for j := spawnIdx + 1; j < len(stmts); j++ {
		es, ok := stmts[j].(*ast.ExprStmt)
		if !ok {
			continue
		}
		jc, ok := fj.asJoinCall(es.X)
		if !ok {
			continue
		}
		arg, ok := jc.Args[0].(*ast.Ident)
		if !ok || fj.rep.Info.Uses[arg.ID()] != v {
			continue
		}
		joinOf[call.ID()] = j
		return
	}
}

// writeCount counts stores to a scalar object across the whole program
// (initializing declarations included).
func (fj *forkJoin) writeCount(v *types.Object) int {
	info := fj.rep.Info
	n := 0
	ast.InspectFile(info.File, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.DeclStmt:
			if info.Objects[s.Decl.ID()] == v && s.Decl.Init != nil {
				n++
			}
		case *ast.AssignStmt:
			if id, ok := s.LHS.(*ast.Ident); ok && info.Uses[id.ID()] == v {
				n++
			}
		case *ast.IncDecStmt:
			if id, ok := s.X.(*ast.Ident); ok && info.Uses[id.ID()] == v {
				n++
			}
		}
		return true
	})
	// A global with an initializer also counts as written once.
	if v.Kind == types.ObjGlobal {
		if d, ok := v.Decl.(*ast.VarDecl); ok && d.Init != nil {
			n++
		}
	}
	return n
}

// loopSpawnMatch is a recognized top-level spawn loop.
type loopSpawnMatch struct {
	arr   *types.Object
	call  *ast.Call
	hdr   string
	bound ast.Expr
}

// loopSpawn matches the top-level statement shape
//
//	for (v = 0; v < E; v++) { arr[v] = spawn(R, ...); }
func (fj *forkJoin) loopSpawn(s ast.Stmt) *loopSpawnMatch {
	f, ok := s.(*ast.ForStmt)
	if !ok || len(f.Body.Stmts) != 1 {
		return nil
	}
	as, ok := f.Body.Stmts[0].(*ast.AssignStmt)
	if !ok || as.Op != token.ASSIGN {
		return nil
	}
	idx, ok := as.LHS.(*ast.Index)
	if !ok {
		return nil
	}
	base, ok := idx.X.(*ast.Ident)
	if !ok {
		return nil
	}
	iv, ok := idx.Index.(*ast.Ident)
	if !ok {
		return nil
	}
	sc, ok := fj.asSpawnCall(as.RHS)
	if !ok {
		return nil
	}
	lv, hdrStr, ok := fj.countedHeader(f)
	if !ok || fj.rep.Info.Uses[iv.ID()] != lv {
		return nil
	}
	arr := fj.rep.Info.Uses[base.ID()]
	if arr == nil {
		return nil
	}
	return &loopSpawnMatch{arr: arr, call: sc, hdr: hdrStr, bound: f.CondE.(*ast.Binary).Y}
}

// countedHeader matches `for (v = 0; v < E; v++)` (declaration or plain
// assignment init) where v is a scalar never address-taken and not written
// in the loop body, and E is an int literal or a non-address-taken
// variable. It returns the loop variable and a canonical printed header.
func (fj *forkJoin) countedHeader(f *ast.ForStmt) (*types.Object, string, bool) {
	info := fj.rep.Info
	var v *types.Object
	switch init := f.Init.(type) {
	case *ast.DeclStmt:
		if lit, ok := init.Decl.Init.(*ast.IntLit); !ok || lit.Value != 0 {
			return nil, "", false
		}
		v = info.Objects[init.Decl.ID()]
	case *ast.AssignStmt:
		if init.Op != token.ASSIGN {
			return nil, "", false
		}
		id, ok := init.LHS.(*ast.Ident)
		if !ok {
			return nil, "", false
		}
		if lit, ok := init.RHS.(*ast.IntLit); !ok || lit.Value != 0 {
			return nil, "", false
		}
		v = info.Uses[id.ID()]
	default:
		return nil, "", false
	}
	if v == nil || v.AddrTaken {
		return nil, "", false
	}
	cond, ok := f.CondE.(*ast.Binary)
	if !ok || cond.Op != token.LT {
		return nil, "", false
	}
	cid, ok := cond.X.(*ast.Ident)
	if !ok || info.Uses[cid.ID()] != v {
		return nil, "", false
	}
	switch e := cond.Y.(type) {
	case *ast.IntLit:
	case *ast.Ident:
		o := info.Uses[e.ID()]
		if o == nil || o.AddrTaken || o.Kind == types.ObjParam {
			return nil, "", false
		}
	default:
		return nil, "", false
	}
	inc, ok := f.Post.(*ast.IncDecStmt)
	if !ok || inc.Op != token.INC {
		return nil, "", false
	}
	pid, ok := inc.X.(*ast.Ident)
	if !ok || info.Uses[pid.ID()] != v {
		return nil, "", false
	}
	// v must not be stored to inside the body.
	written := false
	ast.Inspect(f.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if id, ok := s.LHS.(*ast.Ident); ok && info.Uses[id.ID()] == v {
				written = true
			}
		case *ast.IncDecStmt:
			if id, ok := s.X.(*ast.Ident); ok && info.Uses[id.ID()] == v {
				written = true
			}
		}
		return true
	})
	if written {
		return nil, "", false
	}
	hdr := v.Name + "|" + ast.PrintExpr(f.CondE)
	return v, hdr, true
}

// proveLoopJoin matches a later top-level loop with an identical counted
// header whose body is exactly join(arr[v]).
func (fj *forkJoin) proveLoopJoin(m *loopSpawnMatch, spawnIdx int, joinOf map[ast.NodeID]int) {
	arr, call, hdr := m.arr, m.call, m.hdr
	if !fj.handleArrayOK(arr) {
		return
	}
	if !fj.boundFrozenBefore(m.bound, spawnIdx) {
		return
	}
	stmts := fj.main.Decl.Body.Stmts
	for j := spawnIdx + 1; j < len(stmts); j++ {
		f, ok := stmts[j].(*ast.ForStmt)
		if !ok {
			continue
		}
		if len(f.Body.Stmts) != 1 {
			continue
		}
		es, ok := f.Body.Stmts[0].(*ast.ExprStmt)
		if !ok {
			continue
		}
		jc, ok := fj.asJoinCall(es.X)
		if !ok {
			continue
		}
		idx, ok := jc.Args[0].(*ast.Index)
		if !ok {
			continue
		}
		base, ok := idx.X.(*ast.Ident)
		if !ok || fj.rep.Info.Uses[base.ID()] != arr {
			continue
		}
		iv, ok := idx.Index.(*ast.Ident)
		if !ok {
			continue
		}
		lv, jhdr, ok := fj.countedHeader(f)
		if !ok || jhdr != hdr || fj.rep.Info.Uses[iv.ID()] != lv {
			continue
		}
		// No store to arr may land between the spawn loop and the join
		// loop; stores before are overwritten for the whole range (the
		// frozen identical headers cover the same indices) and stores
		// after cannot affect the joins.
		if fj.arrayStoreBetween(arr, spawnIdx, j) {
			return
		}
		joinOf[call.ID()] = j
		return
	}
}

// handleArrayOK verifies the handle array never aliases: every use of it,
// anywhere in the program, is an element access arr[i] that is either the
// target of a spawn store or the argument of a join. The check counts
// total identifier uses against sanctioned occurrences, so any appearance
// in another context (a bare reference, a copy, an address-taking, an
// index expression mentioning arr itself) makes the counts disagree and
// the proof fails closed.
func (fj *forkJoin) handleArrayOK(arr *types.Object) bool {
	if arr == nil {
		return false
	}
	info := fj.rep.Info
	uses, sanctioned := 0, 0
	ast.InspectFile(info.File, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if info.Uses[n.ID()] == arr {
				uses++
			}
		case *ast.AssignStmt:
			if n.Op == token.ASSIGN && fj.isHandleElem(n.LHS, arr) {
				if _, isSpawn := fj.asSpawnCall(n.RHS); isSpawn {
					sanctioned++
				}
			}
		case *ast.Call:
			if _, isJoin := fj.asJoinCall(n); isJoin && len(n.Args) == 1 && fj.isHandleElem(n.Args[0], arr) {
				sanctioned++
			}
		}
		return true
	})
	return uses > 0 && uses == sanctioned
}

// isHandleElem matches arr[i] with a plain identifier index (not arr).
func (fj *forkJoin) isHandleElem(e ast.Expr, arr *types.Object) bool {
	idx, ok := e.(*ast.Index)
	if !ok {
		return false
	}
	base, ok := idx.X.(*ast.Ident)
	if !ok || fj.rep.Info.Uses[base.ID()] != arr {
		return false
	}
	inner, ok := idx.Index.(*ast.Ident)
	return ok && fj.rep.Info.Uses[inner.ID()] != arr
}

// arrayStoreBetween reports whether any store to arr sits in a main
// top-level statement strictly between the given indices, or outside main
// entirely.
func (fj *forkJoin) arrayStoreBetween(arr *types.Object, lo, hi int) bool {
	info := fj.rep.Info
	found := false
	for _, fn := range info.FuncList {
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			idx, ok := as.LHS.(*ast.Index)
			if !ok {
				return true
			}
			base, ok := idx.X.(*ast.Ident)
			if !ok || info.Uses[base.ID()] != arr {
				return true
			}
			if fn != fj.main {
				found = true
				return true
			}
			i, in := fj.topIdx[as.ID()]
			if !in || (i > lo && i < hi) {
				found = true
			}
			return true
		})
	}
	return found
}

// boundFrozenBefore verifies a loop-bound expression holds the same value
// from the given main top-level index onward: it is a literal, or a
// non-address-taken variable written only in main top-level statements
// before that index.
func (fj *forkJoin) boundFrozenBefore(bound ast.Expr, idx int) bool {
	switch e := bound.(type) {
	case *ast.IntLit:
		return true
	case *ast.Ident:
		o := fj.rep.Info.Uses[e.ID()]
		return fj.frozenBefore(o, idx)
	}
	return false
}

// frozenBefore reports whether every write to the object across the whole
// program is a main top-level statement with index < idx.
func (fj *forkJoin) frozenBefore(o *types.Object, idx int) bool {
	if o == nil || o.AddrTaken {
		return false
	}
	if o.Kind == types.ObjParam {
		return false
	}
	if o.Kind == types.ObjLocal && o.Func != fj.main {
		return false
	}
	info := fj.rep.Info
	ok := true
	check := func(n ast.Node) {
		i, in := fj.topIdx[n.ID()]
		if !in || i >= idx {
			ok = false
		}
	}
	ast.InspectFile(info.File, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeclStmt:
			if info.Objects[s.Decl.ID()] == o && s.Decl.Init != nil {
				check(s)
			}
		case *ast.AssignStmt:
			if id, isID := s.LHS.(*ast.Ident); isID && info.Uses[id.ID()] == o {
				check(s)
			}
		case *ast.IncDecStmt:
			if id, isID := s.X.(*ast.Ident); isID && info.Uses[id.ID()] == o {
				check(s)
			}
		}
		return true
	})
	return ok
}
