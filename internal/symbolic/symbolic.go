// Package symbolic implements the symbolic address-bounds analysis Chimera
// uses to build loop-level weak-locks (paper §5), following Rugina and
// Rinard's approach of deriving symbolic lower/upper bounds for pointer and
// array-index expressions [PLDI 2000 / TOPLAS 2005].
//
// For a racy access inside a loop nest, the analysis derives the range of
// word addresses the access can touch across all iterations, as
//
//	[ base + lo(inv) , base + hi(inv) ]
//
// where base is a loop-invariant lvalue (the array or pointer the access
// indexes) and lo/hi are linear expressions over loop-invariant variables,
// evaluated at run time when the loop-lock is acquired (paper Fig. 4:
// WEAK-LOCK(&rank[0] to &rank[radix-1])).
//
// Induction variables are eliminated innermost-first by substituting the
// extreme of their iteration range according to their coefficient's sign;
// when every quantity is numeric the elimination is cross-checked against
// the exact LP solver (internal/lp), which plays the role lpsolve played in
// the original implementation (paper §6.1).
//
// Imprecision is deliberate and mirrors the paper (§5.2): an index that
// depends on a value computed inside the loop (radix's rank[my_key]) or on
// an unsupported operator (&, |, %, /) yields unbounded [-inf, +inf]
// bounds, and the instrumenter then falls back per §5.3.
package symbolic

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"repro/internal/lp"
	"repro/internal/minic/ast"
	"repro/internal/minic/token"
	"repro/internal/minic/types"
)

// LinExpr is Const + sum(Coef[v] * value-at-loop-entry(v)).
type LinExpr struct {
	Const int64
	Terms map[*types.Object]int64
}

// NewLin returns the constant linear expression c.
func NewLin(c int64) *LinExpr { return &LinExpr{Const: c, Terms: map[*types.Object]int64{}} }

// clone copies the expression.
func (l *LinExpr) clone() *LinExpr {
	n := NewLin(l.Const)
	for k, v := range l.Terms {
		n.Terms[k] = v
	}
	return n
}

// addScaled adds k*other into l.
func (l *LinExpr) addScaled(other *LinExpr, k int64) {
	l.Const += k * other.Const
	for v, c := range other.Terms {
		l.Terms[v] += k * c
		if l.Terms[v] == 0 {
			delete(l.Terms, v)
		}
	}
}

// scale multiplies l by k.
func (l *LinExpr) scale(k int64) {
	l.Const *= k
	for v := range l.Terms {
		l.Terms[v] *= k
		if l.Terms[v] == 0 {
			delete(l.Terms, v)
		}
	}
}

// IsConst reports whether l has no symbolic terms.
func (l *LinExpr) IsConst() bool { return len(l.Terms) == 0 }

// String renders the expression.
func (l *LinExpr) String() string {
	var parts []string
	var vars []*types.Object
	for v := range l.Terms {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Name < vars[j].Name })
	for _, v := range vars {
		c := l.Terms[v]
		switch c {
		case 1:
			parts = append(parts, v.Name)
		case -1:
			parts = append(parts, "-"+v.Name)
		default:
			parts = append(parts, fmt.Sprintf("%d*%s", c, v.Name))
		}
	}
	if l.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", l.Const))
	}
	return strings.Join(parts, " + ")
}

// Bounds is the result for one (loop, access) pair.
type Bounds struct {
	// Access is the racy lvalue node the bounds cover.
	Access ast.NodeID

	// Loop is the loop statement the bounds are valid for (the outermost
	// loop with precise-enough bounds, per paper §5.3).
	Loop ast.Stmt

	// Precise is false when the analysis failed; the range is then
	// conceptually [-inf, +inf].
	Precise bool

	// Base is the loop-invariant base lvalue the range is relative to
	// (an array variable or pointer variable expression in the original
	// tree; the instrumenter clones it).
	Base ast.Expr

	// LoWords/HiWords are word-offset bounds relative to Base's address,
	// as linear expressions over loop-invariant variables.
	LoWords, HiWords *LinExpr

	// Reason records why the bounds are imprecise, for reports.
	Reason string
}

// String renders the bounds in the paper's Figure-4 style.
func (b *Bounds) String() string {
	if !b.Precise {
		return fmt.Sprintf("[-INF, +INF] (%s)", b.Reason)
	}
	base := ast.PrintExpr(b.Base)
	return fmt.Sprintf("[&%s + (%s), &%s + (%s)]", base, b.LoWords, base, b.HiWords)
}

// InfBounds returns an imprecise result.
func InfBounds(access ast.NodeID, loop ast.Stmt, reason string) *Bounds {
	return &Bounds{Access: access, Loop: loop, Precise: false, Reason: reason}
}

// indVar describes one parsed loop induction variable.
type indVar struct {
	obj  *types.Object
	loE  ast.Expr // inclusive lower bound expression
	hiE  ast.Expr // inclusive upper bound expression
	loop ast.Stmt
}

// Analysis holds the per-program context.
type Analysis struct {
	Info *types.Info
}

// New returns an analysis over the checked program.
func New(info *types.Info) *Analysis { return &Analysis{Info: info} }

// AccessBounds derives bounds for the access lval under the loop chain
// (outermost first, all enclosing the access). It tries each loop from the
// outermost inward and returns the bounds for the first loop whose range is
// precise; if none is, it returns imprecise bounds for the innermost loop.
func (a *Analysis) AccessBounds(chain []ast.Stmt, lval ast.Expr) *Bounds {
	if len(chain) == 0 {
		return InfBounds(lval.ID(), nil, "not inside a loop")
	}
	var last *Bounds
	for i := 0; i < len(chain); i++ {
		b := a.boundsForLoop(chain[i], chain[i:], lval)
		if b.Precise {
			return b
		}
		last = b
	}
	last.Loop = chain[len(chain)-1]
	return last
}

// boundsForLoop computes bounds valid for `loop`, with the inner loop chain
// inner (loop itself first).
func (a *Analysis) boundsForLoop(loop ast.Stmt, inner []ast.Stmt, lval ast.Expr) *Bounds {
	mod := a.modifiedVars(loop)

	// Parse every loop header in the chain; each contributes an induction
	// variable with bounds.
	var ivs []*indVar
	ivByObj := make(map[*types.Object]*indVar)
	for _, l := range inner {
		iv, reason := a.parseLoopHeader(l)
		if iv == nil {
			return InfBounds(lval.ID(), loop, reason)
		}
		// The induction variable must not be modified elsewhere in its
		// loop body.
		if a.varAssignedInBody(l, iv.obj) {
			return InfBounds(lval.ID(), loop, fmt.Sprintf("induction variable %s modified in loop body", iv.obj.Name))
		}
		ivs = append(ivs, iv)
		ivByObj[iv.obj] = iv
	}

	env := &linEnv{a: a, mod: mod, ind: ivByObj}

	// Address of the access as base + linear word offset.
	base, off, reason := a.addrOf(lval, env)
	if base == nil {
		return InfBounds(lval.ID(), loop, reason)
	}

	// Bound expressions for each induction variable, linearized in the
	// same environment (they may reference outer induction variables).
	var bounds []ivBound
	for _, iv := range ivs {
		lo := env.lin(iv.loE)
		hi := env.lin(iv.hiE)
		if lo == nil || hi == nil {
			return InfBounds(lval.ID(), loop, fmt.Sprintf("loop bound of %s not affine", iv.obj.Name))
		}
		bounds = append(bounds, ivBound{iv, lo, hi})
	}

	// Eliminate induction variables innermost-first (reverse order): each
	// variable's bound expressions may mention outer induction variables,
	// which are eliminated later.
	lo := off.clone()
	hi := off.clone()
	for i := len(bounds) - 1; i >= 0; i-- {
		b := bounds[i]
		lo = substExtreme(lo, b.iv.obj, b.lo, b.hi, false)
		hi = substExtreme(hi, b.iv.obj, b.lo, b.hi, true)
		if lo == nil || hi == nil {
			return InfBounds(lval.ID(), loop, "nested bound depends on inner variable")
		}
	}
	// No induction variable may survive.
	for _, b := range bounds {
		if _, ok := lo.Terms[b.iv.obj]; ok {
			return InfBounds(lval.ID(), loop, "unresolved induction variable")
		}
		if _, ok := hi.Terms[b.iv.obj]; ok {
			return InfBounds(lval.ID(), loop, "unresolved induction variable")
		}
	}

	res := &Bounds{
		Access: lval.ID(), Loop: loop, Precise: true,
		Base: base, LoWords: lo, HiWords: hi,
	}

	// When everything is numeric, cross-check the elimination against the
	// exact LP solver (the lpsolve role).
	if lo.IsConst() && hi.IsConst() {
		allConst := true
		for _, b := range bounds {
			if !b.lo.IsConst() || !b.hi.IsConst() {
				allConst = false
				break
			}
		}
		if allConst && !a.lpCheck(off, bounds, lo.Const, hi.Const) {
			return InfBounds(lval.ID(), loop, "lp cross-check failed")
		}
	}
	return res
}

// ivBound pairs an induction variable with its linearized iteration range.
type ivBound struct {
	iv     *indVar
	lo, hi *LinExpr
}

// ---------------------------------------------------------------------------

// substExtreme replaces v in l with its lower or upper bound expression
// depending on the sign of v's coefficient and whether we want the maximum
// (wantMax) or minimum of l.
func substExtreme(l *LinExpr, v *types.Object, lo, hi *LinExpr, wantMax bool) *LinExpr {
	c, ok := l.Terms[v]
	if !ok {
		return l
	}
	n := l.clone()
	delete(n.Terms, v)
	pickHi := (c > 0) == wantMax
	if pickHi {
		n.addScaled(hi, c)
	} else {
		n.addScaled(lo, c)
	}
	return n
}

// linEnv is the linearization environment for one candidate loop.
type linEnv struct {
	a   *Analysis
	mod map[*types.Object]bool
	ind map[*types.Object]*indVar
}

// lin converts e to a linear expression over induction variables and
// loop-invariant variables; nil when e is not affine.
func (env *linEnv) lin(e ast.Expr) *LinExpr {
	switch e := e.(type) {
	case *ast.IntLit:
		return NewLin(e.Value)

	case *ast.Sizeof:
		// The checker guarantees a valid type; fold its size.
		return NewLin(env.a.sizeofType(e))

	case *ast.Ident:
		o := env.a.Info.Uses[e.ID()]
		if o == nil {
			return nil
		}
		switch o.Kind {
		case types.ObjGlobal, types.ObjLocal, types.ObjParam:
			if o.Type.Kind != types.Int && o.Type.Kind != types.Ptr {
				return nil
			}
			if _, isInd := env.ind[o]; !isInd && env.mod[o] {
				return nil // modified inside the loop: not invariant
			}
			l := NewLin(0)
			l.Terms[o] = 1
			return l
		}
		return nil

	case *ast.Unary:
		if e.Op == token.MINUS {
			x := env.lin(e.X)
			if x == nil {
				return nil
			}
			x = x.clone()
			x.scale(-1)
			return x
		}
		return nil

	case *ast.Binary:
		switch e.Op {
		case token.PLUS, token.MINUS:
			x := env.lin(e.X)
			y := env.lin(e.Y)
			if x == nil || y == nil {
				return nil
			}
			r := x.clone()
			if e.Op == token.PLUS {
				r.addScaled(y, 1)
			} else {
				r.addScaled(y, -1)
			}
			return r
		case token.STAR:
			x := env.lin(e.X)
			y := env.lin(e.Y)
			if x == nil || y == nil {
				return nil
			}
			switch {
			case x.IsConst():
				r := y.clone()
				r.scale(x.Const)
				return r
			case y.IsConst():
				r := x.clone()
				r.scale(y.Const)
				return r
			}
			return nil
		case token.SHL:
			x := env.lin(e.X)
			y := env.lin(e.Y)
			if x == nil || y == nil || !y.IsConst() || y.Const < 0 || y.Const > 30 {
				return nil
			}
			r := x.clone()
			r.scale(int64(1) << uint(y.Const))
			return r
		}
		// Unsupported operators (paper §5.2: modulo, logical AND/OR, ...).
		return nil
	}
	return nil
}

// addrOf decomposes an lvalue into a loop-invariant base expression plus a
// linear word offset. Returns (nil, nil, reason) on failure.
func (a *Analysis) addrOf(lval ast.Expr, env *linEnv) (ast.Expr, *LinExpr, string) {
	switch e := lval.(type) {
	case *ast.Index:
		elemSize := int64(1)
		if t := a.Info.Types[e.ID()]; t != nil && t.Size() > 0 {
			elemSize = t.Size()
		}
		idx := env.lin(e.Index)
		if idx == nil {
			return nil, nil, fmt.Sprintf("index %s not affine in loop-invariant terms", ast.PrintExpr(e.Index))
		}
		idx = idx.clone()
		idx.scale(elemSize)
		base, off, reason := a.addrOf(e.X, env)
		if base == nil {
			return nil, nil, reason
		}
		off = off.clone()
		off.addScaled(idx, 1)
		return base, off, ""

	case *ast.Ident:
		o := a.Info.Uses[e.ID()]
		if o == nil {
			return nil, nil, "unresolved base"
		}
		switch o.Kind {
		case types.ObjGlobal, types.ObjLocal, types.ObjParam:
			// Arrays: the base is the array lvalue itself. Pointers: the
			// base is the pointer's value, which must be invariant.
			if o.Type.Kind == types.Ptr || o.Type.Kind == types.Int {
				if env.mod[o] {
					return nil, nil, fmt.Sprintf("base pointer %s modified in loop", o.Name)
				}
			}
			return e, NewLin(0), ""
		}
		return nil, nil, "base is not a variable"

	case *ast.Field:
		// s.f / p->f: the field offset is constant; recurse on the base.
		var si *types.StructInfo
		xt := a.Info.Types[e.X.ID()]
		if e.Arrow {
			if xt == nil || xt.Kind != types.Ptr || xt.Elem.Kind != types.StructT {
				return nil, nil, "bad arrow base"
			}
			si = xt.Elem.Struct
			// The pointer value must be invariant; treat p->f with p as
			// base.
			base, off, reason := a.addrOf(e.X, env)
			if base == nil {
				return nil, nil, reason
			}
			fi := si.Field(e.Name)
			if fi == nil {
				return nil, nil, "unknown field"
			}
			off = off.clone()
			off.Const += fi.Offset
			return base, off, ""
		}
		if xt == nil || xt.Kind != types.StructT {
			return nil, nil, "bad field base"
		}
		si = xt.Struct
		base, off, reason := a.addrOf(e.X, env)
		if base == nil {
			return nil, nil, reason
		}
		fi := si.Field(e.Name)
		if fi == nil {
			return nil, nil, "unknown field"
		}
		off = off.clone()
		off.Const += fi.Offset
		return base, off, ""

	case *ast.Unary:
		if e.Op == token.STAR {
			// *p: base is the invariant pointer p.
			if id, ok := e.X.(*ast.Ident); ok {
				return a.addrOf(id, env)
			}
			return nil, nil, "deref of non-variable"
		}
		return nil, nil, "unsupported lvalue shape"
	}
	return nil, nil, "unsupported lvalue shape"
}

func (a *Analysis) sizeofType(e *ast.Sizeof) int64 {
	t := e.Type
	if t.Stars > 0 {
		return 1
	}
	switch t.Kind {
	case ast.TypeInt:
		return 1
	case ast.TypeStruct:
		if si := a.Info.Structs[t.StructName]; si != nil {
			return si.Size
		}
	}
	return 1
}

// ---------------------------------------------------------------------------
// Loop header parsing

// parseLoopHeader recognizes canonical counted loops:
//
//	for (i = E0; i < E1; i++)        i in [E0, E1-1]
//	for (i = E0; i <= E1; i += c)    i in [E0, E1]
//	for (i = E0; i > E1; i--)        i in [E1+1, E0]
//	for (i = E0; i >= E1; i -= c)    i in [E1, E0]
//
// Anything else (while loops, infinite loops, compound conditions) is
// imprecise for bounds purposes.
func (a *Analysis) parseLoopHeader(loop ast.Stmt) (*indVar, string) {
	fs, ok := loop.(*ast.ForStmt)
	if !ok {
		return nil, "not a counted for-loop"
	}
	if fs.CondE == nil || fs.Post == nil || fs.Init == nil {
		return nil, "for-loop header incomplete"
	}

	// Induction variable and initial expression.
	var obj *types.Object
	var initE ast.Expr
	switch init := fs.Init.(type) {
	case *ast.DeclStmt:
		obj = a.Info.Objects[init.Decl.ID()]
		initE = init.Decl.Init
	case *ast.AssignStmt:
		if init.Op != token.ASSIGN {
			return nil, "loop init is compound assignment"
		}
		id, ok := init.LHS.(*ast.Ident)
		if !ok {
			return nil, "loop init target not a variable"
		}
		obj = a.Info.Uses[id.ID()]
		initE = init.RHS
	default:
		return nil, "unsupported loop init"
	}
	if obj == nil || initE == nil {
		return nil, "loop init unresolved"
	}

	// Step direction from the post statement.
	dir := 0 // +1 up, -1 down
	switch post := fs.Post.(type) {
	case *ast.IncDecStmt:
		id, ok := post.X.(*ast.Ident)
		if !ok || a.Info.Uses[id.ID()] != obj {
			return nil, "loop post does not step the induction variable"
		}
		if post.Op == token.INC {
			dir = 1
		} else {
			dir = -1
		}
	case *ast.AssignStmt:
		id, ok := post.LHS.(*ast.Ident)
		if !ok || a.Info.Uses[id.ID()] != obj {
			return nil, "loop post does not step the induction variable"
		}
		step, ok := post.RHS.(*ast.IntLit)
		if !ok || step.Value <= 0 {
			// i += expr with non-constant or non-positive step.
			return nil, "loop step not a positive constant"
		}
		switch post.Op {
		case token.ADD_ASSIGN:
			dir = 1
		case token.SUB_ASSIGN:
			dir = -1
		default:
			return nil, "unsupported loop post"
		}
	default:
		return nil, "unsupported loop post"
	}

	// Condition: i <op> E1 (or E1 <op> i).
	cond, ok := fs.CondE.(*ast.Binary)
	if !ok {
		return nil, "loop condition not a comparison"
	}
	op := cond.Op
	lhsID, lhsIsVar := cond.X.(*ast.Ident)
	rhsID, rhsIsVar := cond.Y.(*ast.Ident)
	var limit ast.Expr
	switch {
	case lhsIsVar && a.Info.Uses[lhsID.ID()] == obj:
		limit = cond.Y
	case rhsIsVar && a.Info.Uses[rhsID.ID()] == obj:
		limit = cond.X
		// Mirror the operator: E1 > i is i < E1 etc.
		switch op {
		case token.LT:
			op = token.GT
		case token.LE:
			op = token.GE
		case token.GT:
			op = token.LT
		case token.GE:
			op = token.LE
		}
	default:
		return nil, "loop condition does not test the induction variable"
	}

	iv := &indVar{obj: obj, loop: loop}
	one := func(e ast.Expr, delta int64) ast.Expr {
		// Build e + delta as a synthetic node-less expression; linearize
		// later handles Binary over the original nodes, so synthesize via
		// a Binary with reused metadata (IDs don't matter here because
		// lin() only reads structure and Uses of leaf Idents).
		if delta == 0 {
			return e
		}
		lit := &ast.IntLit{Value: delta}
		lit.SetMeta(e.Pos(), e.ID()) // reuse metadata; lin() ignores it
		b := &ast.Binary{Op: token.PLUS, X: e, Y: lit}
		b.SetMeta(e.Pos(), e.ID())
		return b
	}

	switch {
	case dir > 0 && op == token.LT:
		iv.loE, iv.hiE = initE, one(limit, -1)
	case dir > 0 && op == token.LE:
		iv.loE, iv.hiE = initE, limit
	case dir < 0 && op == token.GT:
		iv.loE, iv.hiE = one(limit, 1), initE
	case dir < 0 && op == token.GE:
		iv.loE, iv.hiE = limit, initE
	case dir > 0 && op == token.NEQ:
		// i != E1 stepping up behaves as i < E1 for well-formed loops.
		iv.loE, iv.hiE = initE, one(limit, -1)
	default:
		return nil, "loop direction and condition disagree"
	}
	return iv, ""
}

// rootArrayObj resolves an lvalue to its root array/struct variable if the
// whole access path stays within one aggregate (no pointer indirection);
// nil otherwise.
func (a *Analysis) rootArrayObj(e ast.Expr) *types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		o := a.Info.Uses[e.ID()]
		if o == nil {
			return nil
		}
		if o.Type.Kind == types.Array || o.Type.Kind == types.StructT {
			return o
		}
		return nil
	case *ast.Index:
		if t := a.Info.Types[e.X.ID()]; t == nil || t.Kind != types.Array {
			return nil // pointer-based indexing
		}
		return a.rootArrayObj(e.X)
	case *ast.Field:
		if e.Arrow {
			return nil
		}
		return a.rootArrayObj(e.X)
	}
	return nil
}

// varAssignedInBody reports whether obj is assigned anywhere in the loop
// body (the header's own post-statement is exempt).
func (a *Analysis) varAssignedInBody(loop ast.Stmt, obj *types.Object) bool {
	var body *ast.Block
	switch l := loop.(type) {
	case *ast.ForStmt:
		body = l.Body
	case *ast.WhileStmt:
		body = l.Body
	default:
		return true
	}
	assigned := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if id, ok := s.LHS.(*ast.Ident); ok && a.Info.Uses[id.ID()] == obj {
				assigned = true
			}
		case *ast.IncDecStmt:
			if id, ok := s.X.(*ast.Ident); ok && a.Info.Uses[id.ID()] == obj {
				assigned = true
			}
		}
		return !assigned
	})
	return assigned
}

// modifiedVars collects every variable assigned within the loop (including
// nested statements). Pointer stores and calls conservatively mark all
// address-taken variables as modified.
func (a *Analysis) modifiedVars(loop ast.Stmt) map[*types.Object]bool {
	mod := make(map[*types.Object]bool)
	var markAllAddrTaken bool
	ast.Inspect(loop, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeclStmt:
			// A variable declared inside the loop takes a fresh value per
			// iteration: never invariant.
			if o := a.Info.Objects[s.Decl.ID()]; o != nil {
				mod[o] = true
			}
		case *ast.AssignStmt:
			switch lhs := s.LHS.(type) {
			case *ast.Ident:
				if o := a.Info.Uses[lhs.ID()]; o != nil {
					mod[o] = true
				}
			default:
				// A store through an array lvalue modifies only that
				// array; a store through a pointer may modify anything.
				if o := a.rootArrayObj(lhs); o != nil {
					mod[o] = true
				} else {
					markAllAddrTaken = true
				}
			}
		case *ast.IncDecStmt:
			if id, ok := s.X.(*ast.Ident); ok {
				if o := a.Info.Uses[id.ID()]; o != nil {
					mod[o] = true
				}
			} else {
				markAllAddrTaken = true
			}
		case *ast.Call:
			// A call may modify globals and anything address-taken.
			markAllAddrTaken = true
		}
		return true
	})
	if markAllAddrTaken {
		for _, o := range a.Info.Uses {
			if o.AddrTaken || o.Kind == types.ObjGlobal {
				mod[o] = true
			}
		}
	}
	return mod
}

// ---------------------------------------------------------------------------
// LP cross-check

// lpCheck verifies a fully numeric elimination against the exact LP
// solver: minimize/maximize the original offset subject to the box
// constraints on the induction variables.
func (a *Analysis) lpCheck(off *LinExpr, bounds []ivBound, wantLo, wantHi int64) bool {
	// Variables: the induction variables, in order.
	idx := make(map[*types.Object]int)
	for i, b := range bounds {
		idx[b.iv.obj] = i
	}
	n := len(bounds)
	p := lp.New(n)
	for i, b := range bounds {
		if !b.lo.IsConst() || !b.hi.IsConst() {
			return true // symbolic: nothing to check numerically
		}
		if b.lo.Const > b.hi.Const {
			return true // empty iteration space; any range is fine
		}
		coef := make([]int64, n)
		coef[i] = 1
		p.AddConstraintInts(coef, lp.GE, b.lo.Const)
		p.AddConstraintInts(coef, lp.LE, b.hi.Const)
	}
	obj := make([]int64, n)
	for v, c := range off.Terms {
		i, ok := idx[v]
		if !ok {
			return true // offset references an invariant: symbolic case
		}
		obj[i] = c
	}
	vmin, _, st1 := p.MinimizeInts(obj)
	vmax, _, st2 := p.MaximizeInts(obj)
	if st1 != lp.Optimal || st2 != lp.Optimal {
		return false
	}
	lo := new(big.Rat).Add(vmin, big.NewRat(off.Const, 1))
	hi := new(big.Rat).Add(vmax, big.NewRat(off.Const, 1))
	return lo.Cmp(big.NewRat(wantLo, 1)) == 0 && hi.Cmp(big.NewRat(wantHi, 1)) == 0
}

// ---------------------------------------------------------------------------
// Helpers for the instrumenter

// LoopHasCalls reports whether the loop body contains any call to a user
// function or a blocking synchronization builtin; such loops are not given
// loop-locks (paper §5.3: "we applied their technique only for loops with
// no function calls in the loop body").
func LoopHasCalls(info *types.Info, loop ast.Stmt) bool {
	var body *ast.Block
	switch l := loop.(type) {
	case *ast.ForStmt:
		body = l.Body
	case *ast.WhileStmt:
		body = l.Body
	default:
		return true
	}
	has := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.Call)
		if !ok {
			return true
		}
		target := info.CallTargets[call.ID()]
		if target == nil {
			has = true // indirect call
			return false
		}
		if target.Kind == types.ObjFunc {
			has = true
			return false
		}
		if target.Builtin.IsSyncOp() {
			has = true
			return false
		}
		return true
	})
	return has
}

// LoopBodySize estimates the static statement count of the loop body; the
// instrumenter compares it against the loop-body-threshold (paper §5.3).
func LoopBodySize(loop ast.Stmt) int {
	var body *ast.Block
	switch l := loop.(type) {
	case *ast.ForStmt:
		body = l.Body
	case *ast.WhileStmt:
		body = l.Body
	default:
		return 0
	}
	n := 0
	ast.Inspect(body, func(node ast.Node) bool {
		if _, ok := node.(ast.Stmt); ok {
			n++
		}
		return true
	})
	return n
}
