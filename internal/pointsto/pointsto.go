// Package pointsto implements the two flow-insensitive, context-insensitive
// pointer analyses RELAY is built on (paper §3.1, §6.2):
//
//   - Andersen's inclusion-based analysis [Andersen 1994], used to resolve
//     function pointers (and thus the call graph and spawn targets), with
//     on-the-fly call-graph construction for indirect calls.
//   - Steensgaard's unification-based analysis [Steensgaard 1996], used to
//     partition lvalues into alias classes for the lockset race check.
//
// Both are deliberately conservative in the same ways as the original
// tools: array elements are collapsed to their array object (index-
// insensitive), struct fields are field-based (one abstract object per
// (struct, field) pair, instance-insensitive), heap objects are per
// allocation site, and pointer arithmetic is assumed to stay within the
// object (paper §3.2, second unsoundness source). This imprecision is the
// raw material Chimera's optimizations work against: e.g. the collapse of
// rank[i] and rank[j] into one object is exactly what produces the false
// self-races that the symbolic bounds analysis (paper §5) then handles with
// loop-locks.
package pointsto

import (
	"fmt"
	"sort"

	"repro/internal/minic/ast"
	"repro/internal/minic/token"
	"repro/internal/minic/types"
)

// ObjKind classifies abstract memory objects.
type ObjKind int

// The abstract object kinds.
const (
	OGlobal ObjKind = iota
	OLocal          // a (heapified) local variable
	OParam
	OHeap  // a malloc site
	OField // a field-based struct field object
	OFunc  // a function (for function-pointer values)
	OStr   // a string literal
)

// ObjID indexes abstract objects within an Analysis.
type ObjID int

// Obj is one abstract memory object.
type Obj struct {
	ID   ObjID
	Kind ObjKind
	Name string

	Var    *types.Object   // OGlobal, OLocal, OParam
	Fn     *types.FuncInfo // OFunc
	Site   ast.NodeID      // OHeap: the malloc call node
	Struct string          // OField
	Field  string          // OField
	Str    string          // OStr: the literal itself
}

// objset is a small sorted set of ObjIDs.
type objset map[ObjID]struct{}

func (s objset) add(o ObjID) bool {
	if _, ok := s[o]; ok {
		return false
	}
	s[o] = struct{}{}
	return true
}

func (s objset) sorted() []ObjID {
	out := make([]ObjID, 0, len(s))
	for o := range s {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// slot is a constraint variable: something that holds pointer values. Every
// object's contents is a slot; expression temporaries and function returns
// get their own slots.
type slot int

// Analysis is the result of running both pointer analyses over a program.
type Analysis struct {
	Info *types.Info

	Objects []*Obj

	objOfVar   map[*types.Object]ObjID
	objOfField map[[2]string]ObjID
	objOfHeap  map[ast.NodeID]ObjID
	objOfFunc  map[*types.FuncInfo]ObjID
	objOfStr   map[string]ObjID

	// contents[o] is the slot holding what object o stores.
	contents []slot

	// pts[s] is the Andersen points-to set of slot s.
	pts []objset

	// subset edges: succs[s] = slots t with pts[s] ⊆ pts[t].
	succs [][]slot

	// complex constraints pending on each slot.
	loads  map[slot][]slot // d with *s ⊆ d
	stores map[slot][]slot // v with v ⊆ *s

	// indirect call sites discovered during generation.
	icalls []*icall

	// lvalSlot memoizes, per lvalue expression node, the slot whose
	// points-to set is the set of objects the lvalue denotes.
	lvalSlot map[ast.NodeID]slot

	// callRet[f] is the slot holding f's return value.
	callRet map[*types.FuncInfo]slot

	// CallTargets maps indirect Call nodes to resolved targets.
	CallTargets map[ast.NodeID][]*types.FuncInfo

	// SpawnTargets maps spawn Call nodes to resolved thread entry points.
	SpawnTargets map[ast.NodeID][]*types.FuncInfo

	// Steensgaard union-find over objects.
	steens *steensgaard

	worklist []slot
	inWork   map[slot]bool
}

// Analyze runs both pointer analyses.
func Analyze(info *types.Info) *Analysis {
	a := &Analysis{
		Info:         info,
		objOfVar:     make(map[*types.Object]ObjID),
		objOfField:   make(map[[2]string]ObjID),
		objOfHeap:    make(map[ast.NodeID]ObjID),
		objOfFunc:    make(map[*types.FuncInfo]ObjID),
		objOfStr:     make(map[string]ObjID),
		loads:        make(map[slot][]slot),
		stores:       make(map[slot][]slot),
		lvalSlot:     make(map[ast.NodeID]slot),
		callRet:      make(map[*types.FuncInfo]slot),
		CallTargets:  make(map[ast.NodeID][]*types.FuncInfo),
		SpawnTargets: make(map[ast.NodeID][]*types.FuncInfo),
		inWork:       make(map[slot]bool),
	}
	a.generate()
	a.solve()
	a.resolveCallMaps()
	a.steens = runSteensgaard(a)
	return a
}

// ---------------------------------------------------------------------------
// Object and slot management

func (a *Analysis) newSlot() slot {
	s := slot(len(a.pts))
	a.pts = append(a.pts, make(objset))
	a.succs = append(a.succs, nil)
	return s
}

func (a *Analysis) newObj(o *Obj) ObjID {
	o.ID = ObjID(len(a.Objects))
	a.Objects = append(a.Objects, o)
	a.contents = append(a.contents, a.newSlot())
	return o.ID
}

// VarObj returns the abstract object for a variable, creating it on first
// use.
func (a *Analysis) VarObj(v *types.Object) ObjID {
	if id, ok := a.objOfVar[v]; ok {
		return id
	}
	kind := OGlobal
	name := v.Name
	switch v.Kind {
	case types.ObjLocal:
		kind = OLocal
		name = v.Func.Name + "." + v.Name
	case types.ObjParam:
		kind = OParam
		name = v.Func.Name + "." + v.Name
	}
	id := a.newObj(&Obj{Kind: kind, Name: name, Var: v})
	a.objOfVar[v] = id
	return id
}

// FieldObj returns the field-based object for struct.field.
func (a *Analysis) FieldObj(structName, field string) ObjID {
	key := [2]string{structName, field}
	if id, ok := a.objOfField[key]; ok {
		return id
	}
	id := a.newObj(&Obj{Kind: OField, Name: structName + "." + field, Struct: structName, Field: field})
	a.objOfField[key] = id
	return id
}

// HeapObj returns the allocation-site object for a malloc call.
func (a *Analysis) HeapObj(site ast.NodeID) ObjID {
	if id, ok := a.objOfHeap[site]; ok {
		return id
	}
	id := a.newObj(&Obj{Kind: OHeap, Name: fmt.Sprintf("heap@%d", site), Site: site})
	a.objOfHeap[site] = id
	return id
}

// FuncObj returns the function object for fn.
func (a *Analysis) FuncObj(fn *types.FuncInfo) ObjID {
	if id, ok := a.objOfFunc[fn]; ok {
		return id
	}
	id := a.newObj(&Obj{Kind: OFunc, Name: fn.Name, Fn: fn})
	a.objOfFunc[fn] = id
	return id
}

// StrObj returns the object for a string literal.
func (a *Analysis) StrObj(s string) ObjID {
	if id, ok := a.objOfStr[s]; ok {
		return id
	}
	id := a.newObj(&Obj{Kind: OStr, Name: fmt.Sprintf("str%d", len(a.objOfStr)), Str: s})
	a.objOfStr[s] = id
	return id
}

// retSlot returns the slot for fn's return value.
func (a *Analysis) retSlot(fn *types.FuncInfo) slot {
	if s, ok := a.callRet[fn]; ok {
		return s
	}
	s := a.newSlot()
	a.callRet[fn] = s
	return s
}

// ---------------------------------------------------------------------------
// Constraint generation

type icall struct {
	node    ast.NodeID
	funSlot slot
	args    []slot
	ret     slot
	isSpawn bool
	bound   map[*types.FuncInfo]bool
}

func (a *Analysis) generate() {
	// Seed function objects so even unreferenced functions exist.
	for _, fn := range a.Info.FuncList {
		a.FuncObj(fn)
	}
	for _, g := range a.Info.Globals {
		a.VarObj(g)
		if vd, ok := g.Decl.(*ast.VarDecl); ok && vd.Init != nil {
			v := a.genExpr(vd.Init, nil)
			a.copyEdge(v, a.contents[a.VarObj(g)])
		}
	}
	for _, fn := range a.Info.FuncList {
		a.genFunc(fn)
	}
}

func (a *Analysis) genFunc(fn *types.FuncInfo) {
	for _, p := range fn.Params {
		a.VarObj(p)
	}
	a.genStmt(fn.Decl.Body, fn)
}

func (a *Analysis) genStmt(s ast.Stmt, fn *types.FuncInfo) {
	switch s := s.(type) {
	case *ast.Block:
		for _, st := range s.Stmts {
			a.genStmt(st, fn)
		}
	case *ast.DeclStmt:
		o := a.Info.Objects[s.Decl.ID()]
		if o == nil {
			return
		}
		obj := a.VarObj(o)
		if s.Decl.Init != nil {
			v := a.genExpr(s.Decl.Init, fn)
			a.copyEdge(v, a.contents[obj])
		}
	case *ast.AssignStmt:
		addr := a.lvalAddr(s.LHS, fn)
		v := a.genExpr(s.RHS, fn)
		if s.Op != token.ASSIGN {
			// Compound assignment keeps pointers within the object.
			old := a.newSlot()
			a.loadEdge(addr, old)
			a.copyEdge(old, v)
		}
		a.storeEdge(v, addr)
	case *ast.IncDecStmt:
		// p++ keeps p pointing at the same object; nothing flows.
		a.genExpr(s.X, fn)
	case *ast.ExprStmt:
		a.genExpr(s.X, fn)
	case *ast.IfStmt:
		a.genExpr(s.CondE, fn)
		a.genStmt(s.Then, fn)
		if s.Else != nil {
			a.genStmt(s.Else, fn)
		}
	case *ast.WhileStmt:
		a.genExpr(s.CondE, fn)
		a.genStmt(s.Body, fn)
	case *ast.ForStmt:
		if s.Init != nil {
			a.genStmt(s.Init, fn)
		}
		if s.CondE != nil {
			a.genExpr(s.CondE, fn)
		}
		if s.Post != nil {
			a.genStmt(s.Post, fn)
		}
		a.genStmt(s.Body, fn)
	case *ast.ReturnStmt:
		if s.X != nil && fn != nil {
			v := a.genExpr(s.X, fn)
			a.copyEdge(v, a.retSlot(fn))
		}
	case *ast.BreakStmt, *ast.ContinueStmt:
	}
}

// lvalAddr returns a slot whose points-to set contains the abstract objects
// the lvalue e may denote; it memoizes per node for later queries.
func (a *Analysis) lvalAddr(e ast.Expr, fn *types.FuncInfo) slot {
	if s, ok := a.lvalSlot[e.ID()]; ok {
		return s
	}
	s := a.lvalAddrUncached(e, fn)
	a.lvalSlot[e.ID()] = s
	return s
}

func (a *Analysis) lvalAddrUncached(e ast.Expr, fn *types.FuncInfo) slot {
	switch e := e.(type) {
	case *ast.Ident:
		o := a.Info.Uses[e.ID()]
		s := a.newSlot()
		if o == nil {
			return s
		}
		switch o.Kind {
		case types.ObjGlobal, types.ObjLocal, types.ObjParam:
			a.addObj(s, a.VarObj(o))
		case types.ObjFunc:
			a.addObj(s, a.FuncObj(o.Func))
		}
		return s

	case *ast.Unary:
		if e.Op == token.STAR {
			// The address of *p is the value of p.
			return a.genExpr(e.X, fn)
		}
		return a.newSlot()

	case *ast.Index:
		// Element collapse: &a[i] denotes the array object itself.
		return a.baseObjects(e.X, fn)

	case *ast.Field:
		if e.Arrow {
			// p->f: field-based object; also evaluate p for its effects.
			a.genExpr(e.X, fn)
			xt := a.Info.Types[e.X.ID()]
			s := a.newSlot()
			if xt != nil && xt.Kind == types.Ptr && xt.Elem.Kind == types.StructT {
				a.addObj(s, a.FieldObj(xt.Elem.Struct.Name, e.Name))
			}
			return s
		}
		// v.f where v is a struct lvalue: if the struct is a plain
		// variable, still use the field-based object for uniformity.
		a.lvalAddr(e.X, fn)
		xt := a.Info.Types[e.X.ID()]
		s := a.newSlot()
		if xt != nil && xt.Kind == types.StructT {
			a.addObj(s, a.FieldObj(xt.Struct.Name, e.Name))
		}
		return s
	}
	// Not an lvalue; evaluate for effects.
	return a.genExpr(e, fn)
}

// baseObjects returns a slot holding the objects that indexing base e lands
// in: the array object for array lvalues, or what a pointer points to.
func (a *Analysis) baseObjects(e ast.Expr, fn *types.FuncInfo) slot {
	t := a.Info.Types[e.ID()]
	if t != nil && t.Kind == types.Array {
		return a.lvalAddr(e, fn)
	}
	// Pointer: the objects are the pointer's points-to set, i.e. its value.
	return a.genExpr(e, fn)
}

// genExpr generates constraints for e and returns the slot holding its
// (possible) pointer value.
func (a *Analysis) genExpr(e ast.Expr, fn *types.FuncInfo) slot {
	switch e := e.(type) {
	case *ast.IntLit, *ast.Sizeof:
		return a.newSlot()

	case *ast.StringLit:
		s := a.newSlot()
		a.addObj(s, a.StrObj(e.Value))
		return s

	case *ast.Ident:
		o := a.Info.Uses[e.ID()]
		s := a.newSlot()
		if o == nil {
			return s
		}
		switch o.Kind {
		case types.ObjFunc:
			a.addObj(s, a.FuncObj(o.Func))
			return s
		case types.ObjGlobal, types.ObjLocal, types.ObjParam:
			if o.Type.Kind == types.Array || o.Type.Kind == types.StructT {
				// Decay: the value is the object's address.
				a.addObj(s, a.VarObj(o))
				return s
			}
			a.copyEdge(a.contents[a.VarObj(o)], s)
			return s
		}
		return s

	case *ast.Unary:
		switch e.Op {
		case token.AMP:
			return a.lvalAddr(e.X, fn)
		case token.STAR:
			addr := a.genExpr(e.X, fn)
			if _, ok := a.lvalSlot[e.ID()]; !ok {
				a.lvalSlot[e.ID()] = addr // memoize for ObjectsOf queries
			}
			t := a.Info.Types[e.ID()]
			if t != nil && (t.Kind == types.Array || t.Kind == types.StructT) {
				return addr
			}
			s := a.newSlot()
			a.loadEdge(addr, s)
			return s
		default:
			a.genExpr(e.X, fn)
			return a.newSlot()
		}

	case *ast.Binary:
		x := a.genExpr(e.X, fn)
		y := a.genExpr(e.Y, fn)
		s := a.newSlot()
		// Pointer arithmetic: the result may point wherever either side
		// points (paper §3.2: arithmetic stays within the object).
		if e.Op == token.PLUS || e.Op == token.MINUS {
			a.copyEdge(x, s)
			a.copyEdge(y, s)
		}
		return s

	case *ast.Cond:
		a.genExpr(e.CondE, fn)
		x := a.genExpr(e.Then, fn)
		y := a.genExpr(e.Else, fn)
		s := a.newSlot()
		a.copyEdge(x, s)
		a.copyEdge(y, s)
		return s

	case *ast.Index:
		addr := a.lvalAddr(e, fn)
		a.genExpr(e.Index, fn)
		t := a.Info.Types[e.ID()]
		if t != nil && (t.Kind == types.Array || t.Kind == types.StructT) {
			return addr
		}
		s := a.newSlot()
		a.loadEdge(addr, s)
		return s

	case *ast.Field:
		addr := a.lvalAddr(e, fn)
		t := a.Info.Types[e.ID()]
		if t != nil && (t.Kind == types.Array || t.Kind == types.StructT) {
			return addr
		}
		s := a.newSlot()
		a.loadEdge(addr, s)
		return s

	case *ast.Call:
		return a.genCall(e, fn)
	}
	return a.newSlot()
}

func (a *Analysis) genCall(e *ast.Call, fn *types.FuncInfo) slot {
	var args []slot
	for _, arg := range e.Args {
		args = append(args, a.genExpr(arg, fn))
	}

	if target := a.Info.CallTargets[e.ID()]; target != nil {
		if target.Kind == types.ObjBuiltin {
			return a.genBuiltin(e, target.Builtin, args)
		}
		callee := a.Info.Funcs[target.Name]
		a.bindCall(callee, args)
		return a.retSlot(callee)
	}

	// Indirect call: resolve on the fly during solving.
	funSlot := a.genExpr(e.Fun, fn)
	ret := a.newSlot()
	a.icalls = append(a.icalls, &icall{
		node: e.ID(), funSlot: funSlot, args: args, ret: ret,
		bound: make(map[*types.FuncInfo]bool),
	})
	return ret
}

func (a *Analysis) genBuiltin(e *ast.Call, op types.BuiltinOp, args []slot) slot {
	switch op {
	case types.BMalloc:
		s := a.newSlot()
		a.addObj(s, a.HeapObj(e.ID()))
		return s
	case types.BSpawn:
		// The spawned function receives args[1] as its parameter.
		a.icalls = append(a.icalls, &icall{
			node: e.ID(), funSlot: args[0], args: []slot{args[1]},
			ret: a.newSlot(), isSpawn: true,
			bound: make(map[*types.FuncInfo]bool),
		})
		return a.newSlot()
	}
	return a.newSlot()
}

// bindCall wires argument and return flow for a resolved callee.
func (a *Analysis) bindCall(callee *types.FuncInfo, args []slot) {
	for i, p := range callee.Params {
		if i < len(args) {
			a.copyEdge(args[i], a.contents[a.VarObj(p)])
		}
	}
}

// ---------------------------------------------------------------------------
// Andersen solver

func (a *Analysis) addObj(s slot, o ObjID) {
	if a.pts[s].add(o) {
		a.enqueue(s)
	}
}

func (a *Analysis) copyEdge(from, to slot) {
	if from == to {
		return
	}
	a.succs[from] = append(a.succs[from], to)
	if len(a.pts[from]) > 0 {
		a.enqueue(from)
	}
}

func (a *Analysis) loadEdge(addr, dst slot) {
	a.loads[addr] = append(a.loads[addr], dst)
	if len(a.pts[addr]) > 0 {
		a.enqueue(addr)
	}
}

func (a *Analysis) storeEdge(val, addr slot) {
	a.stores[addr] = append(a.stores[addr], val)
	if len(a.pts[addr]) > 0 {
		a.enqueue(addr)
	}
}

func (a *Analysis) enqueue(s slot) {
	if !a.inWork[s] {
		a.inWork[s] = true
		a.worklist = append(a.worklist, s)
	}
}

func (a *Analysis) solve() {
	for len(a.worklist) > 0 {
		s := a.worklist[len(a.worklist)-1]
		a.worklist = a.worklist[:len(a.worklist)-1]
		a.inWork[s] = false

		objs := a.pts[s].sorted()

		// Subset edges.
		for _, t := range a.succs[s] {
			changed := false
			for _, o := range objs {
				if a.pts[t].add(o) {
					changed = true
				}
			}
			if changed {
				a.enqueue(t)
			}
		}
		// Complex constraints: loads and stores through s.
		for _, d := range a.loads[s] {
			for _, o := range objs {
				a.copyEdge(a.contents[o], d)
			}
		}
		for _, v := range a.stores[s] {
			for _, o := range objs {
				a.copyEdge(v, a.contents[o])
			}
		}
		// Indirect calls whose function slot gained targets.
		for _, ic := range a.icalls {
			if ic.funSlot != s {
				continue
			}
			for _, o := range objs {
				obj := a.Objects[o]
				if obj.Kind != OFunc || ic.bound[obj.Fn] {
					continue
				}
				ic.bound[obj.Fn] = true
				a.bindCall(obj.Fn, ic.args)
				a.copyEdge(a.retSlot(obj.Fn), ic.ret)
			}
		}
	}
}

func (a *Analysis) resolveCallMaps() {
	for _, ic := range a.icalls {
		var fns []*types.FuncInfo
		for _, o := range a.pts[ic.funSlot].sorted() {
			if obj := a.Objects[o]; obj.Kind == OFunc {
				fns = append(fns, obj.Fn)
			}
		}
		if ic.isSpawn {
			a.SpawnTargets[ic.node] = fns
		} else {
			a.CallTargets[ic.node] = fns
		}
	}
}

// ---------------------------------------------------------------------------
// Queries

// ObjectsOf returns the abstract objects an lvalue expression may denote
// (by node ID), as determined by the Andersen analysis.
func (a *Analysis) ObjectsOf(lval ast.NodeID) []ObjID {
	s, ok := a.lvalSlot[lval]
	if !ok {
		return nil
	}
	return a.pts[s].sorted()
}

// VarObjID returns the abstract object for a variable if one was created
// during analysis.
func (a *Analysis) VarObjID(v *types.Object) (ObjID, bool) {
	id, ok := a.objOfVar[v]
	return id, ok
}

// Obj returns the object descriptor.
func (a *Analysis) Obj(id ObjID) *Obj { return a.Objects[id] }

// Escapes reports whether a local/param object may be reachable by another
// thread: it (transitively) appears in the contents of a non-local object
// or is passed to spawn. Globals, heap, fields and strings always escape.
// RELAY's heapified-local filter (paper §6.2) keeps race warnings only for
// escaping locals.
func (a *Analysis) Escapes(o ObjID) bool {
	obj := a.Objects[o]
	if obj.Kind != OLocal && obj.Kind != OParam {
		return true
	}
	// Fixpoint over "reachable from a shared root": shared roots are
	// globals, fields, heap and spawn arguments.
	shared := make(map[ObjID]bool)
	var queue []ObjID
	mark := func(x ObjID) {
		if !shared[x] {
			shared[x] = true
			queue = append(queue, x)
		}
	}
	for _, root := range a.Objects {
		switch root.Kind {
		case OGlobal, OField, OHeap, OStr:
			for _, p := range a.pts[a.contents[root.ID]].sorted() {
				mark(p)
			}
		}
	}
	for _, ic := range a.icalls {
		if ic.isSpawn && len(ic.args) > 0 {
			for _, p := range a.pts[ic.args[0]].sorted() {
				mark(p)
			}
		}
	}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, p := range a.pts[a.contents[x]].sorted() {
			mark(p)
		}
	}
	return shared[o]
}

// SpawnArgPointees returns every object a spawn call's thread argument may
// point to, deduplicated and sorted: the seeds through which memory
// becomes reachable by a child thread. This is the same seed set Escapes
// closes over; it is exported so whole-program sharing analyses
// (internal/escape, the certifier's discharge check) can run the
// reachability once instead of per object.
func (a *Analysis) SpawnArgPointees() []ObjID {
	seen := make(map[ObjID]bool)
	var out []ObjID
	for _, ic := range a.icalls {
		if ic.isSpawn && len(ic.args) > 0 {
			for _, p := range a.pts[ic.args[0]].sorted() {
				if !seen[p] {
					seen[p] = true
					out = append(out, p)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ContentsPointees returns the objects o's contents may point to — one
// step of the heap-reachability relation Escapes closes over, in sorted
// order.
func (a *Analysis) ContentsPointees(o ObjID) []ObjID {
	return a.pts[a.contents[o]].sorted()
}

// SteensClass returns the Steensgaard alias class of an object. Objects in
// the same class may alias; the lockset analysis treats same-class
// accesses as accesses to the same shared object.
func (a *Analysis) SteensClass(o ObjID) int { return a.steens.find(int(o)) }

// SameClass reports whether two object sets share a Steensgaard class.
func (a *Analysis) SameClass(x, y []ObjID) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	cls := make(map[int]bool, len(x))
	for _, o := range x {
		cls[a.SteensClass(o)] = true
	}
	for _, o := range y {
		if cls[a.SteensClass(o)] {
			return true
		}
	}
	return false
}

// ClassMembers returns all objects in o's Steensgaard class.
func (a *Analysis) ClassMembers(o ObjID) []ObjID {
	c := a.SteensClass(o)
	var out []ObjID
	for id := range a.Objects {
		if a.steens.find(id) == c {
			out = append(out, ObjID(id))
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Steensgaard unification
//
// Run after Andersen: we re-play the value-flow edges with unification
// semantics. Two objects whose contents exchange values (directly or
// through loads/stores already resolved by Andersen) land in one class.
// This reproduces the coarser equivalence RELAY uses for alias classes.

type steensgaard struct {
	parent []int
	// pointee[c] is the class this class's contents point to (-1 none).
	pointee []int
}

func runSteensgaard(a *Analysis) *steensgaard {
	st := &steensgaard{
		parent:  make([]int, len(a.Objects)),
		pointee: make([]int, len(a.Objects)),
	}
	for i := range st.parent {
		st.parent[i] = i
		st.pointee[i] = -1
	}
	// Unify along resolved points-to: if a slot's pts has multiple
	// objects, a single Steensgaard cell would have merged them.
	for s := range a.pts {
		objs := a.pts[slot(s)].sorted()
		for i := 1; i < len(objs); i++ {
			st.union(int(objs[0]), int(objs[i]))
		}
	}
	// Unify pointees: contents of one class point to one class.
	for o := range a.Objects {
		for _, p := range a.pts[a.contents[o]].sorted() {
			st.setPointee(o, int(p))
		}
	}
	// Fully compress so post-construction finds never write: queries run
	// concurrently once the analysis is shared across pipeline workers.
	for i := range st.parent {
		st.parent[i] = st.find(i)
	}
	return st
}

func (st *steensgaard) find(x int) int {
	root := x
	for st.parent[root] != root {
		root = st.parent[root]
	}
	for st.parent[x] != root {
		x, st.parent[x] = st.parent[x], root
	}
	return root
}

func (st *steensgaard) union(x, y int) {
	rx, ry := st.find(x), st.find(y)
	if rx == ry {
		return
	}
	px, py := st.pointee[rx], st.pointee[ry]
	st.parent[ry] = rx
	if px == -1 {
		st.pointee[rx] = py
	} else if py != -1 {
		st.pointee[rx] = px
		st.union(px, py) // recursive pointee unification
	}
}

func (st *steensgaard) setPointee(o, p int) {
	ro := st.find(o)
	cur := st.pointee[ro]
	if cur == -1 {
		st.pointee[ro] = st.find(p)
		return
	}
	st.union(cur, p)
}

// String summarizes the analysis for debugging.
func (a *Analysis) String() string {
	return fmt.Sprintf("pointsto{objects:%d slots:%d icalls:%d}",
		len(a.Objects), len(a.pts), len(a.icalls))
}
