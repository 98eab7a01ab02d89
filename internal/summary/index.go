package summary

import (
	"bytes"
	"crypto/sha256"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/callgraph"
	"repro/internal/minic/ast"
	"repro/internal/minic/types"
	"repro/internal/pointsto"
)

// Indexer computes the content-addressed key of every function in one
// analyzed program and provides the translation maps the portable artifact
// codecs need: node IDs to per-declaration ordinals (and back), and
// abstract objects to canonical keys (and back).
//
// A function's key is the SHA-256 of
//
//   - its canonical source: the pretty-printed declaration, so whitespace
//     and position shifts do not invalidate;
//   - its prelude: the printed declarations of the globals it names and of
//     every struct (type shape the summary can depend on);
//   - its points-to fragment: per node ordinal, the semantic resolution the
//     RELAY walk reads — expression types, identifier bindings (kind, slot,
//     address-takenness), the canonical keys of the node's may-point-to
//     objects, and direct/indirect/spawn call targets;
//   - its callee SCCs' keys (recursively), which is what turns one edit
//     into exactly the transitive-caller dirty cone.
//
// Mutually recursive functions share an SCC-level key component, so a
// recursion group is reused or recomputed as a unit.
//
// Fail-closed: duplicate top-level names make the whole program
// unkeyable, and any object or node the canonical grammars cannot name
// makes the functions touching it unkeyable. Unkeyable functions are
// always recomputed and never stored.
type Indexer struct {
	info *types.Info
	pta  *pointsto.Analysis
	cg   *callgraph.Graph

	refOf []nodeRef // by dense NodeID; Fn == "" marks an unowned node
	nodes map[string][]ast.Node

	objKeys []string // by ObjID; "" marks an unkeyable object
	objOf   map[string]pointsto.ObjID
	objRank []int32 // lexicographic rank of objKeys by ObjID; -1 = unkeyable

	typeStr     map[*types.Type]string // memoized Type.String()
	globalPrint map[string]string      // memoized declPrint of global VarDecls

	funcKey map[string]Key
	keyable map[string]bool

	invalid bool
}

type nodeRef struct {
	Fn  string
	Ord int
}

// NewIndexer indexes one analyzed program sequentially.
func NewIndexer(info *types.Info, pta *pointsto.Analysis, cg *callgraph.Graph) *Indexer {
	return NewIndexerParallel(info, pta, cg, 1)
}

// NewIndexerParallel indexes one analyzed program, fanning the
// independent per-function hash computations over up to workers
// goroutines. Every key is identical for every worker count: only the
// per-function content/prelude/fragment hashes run concurrently; the
// bottom-up SCC key combination is sequential.
func NewIndexerParallel(info *types.Info, pta *pointsto.Analysis, cg *callgraph.Graph, workers int) *Indexer {
	ix := &Indexer{
		info:        info,
		pta:         pta,
		cg:          cg,
		refOf:       make([]nodeRef, info.File.MaxID),
		nodes:       make(map[string][]ast.Node),
		objOf:       make(map[string]pointsto.ObjID),
		funcKey:     make(map[string]Key),
		keyable:     make(map[string]bool),
		typeStr:     make(map[*types.Type]string),
		globalPrint: make(map[string]string),
	}
	ix.checkUniqueNames()
	ix.buildOrdinals()
	ix.buildObjKeys()
	ix.computeKeys(workers)
	return ix
}

// Info returns the semantic info this index was built over.
func (ix *Indexer) Info() *types.Info { return ix.info }

// FuncKey returns the content key of the named function; ok is false for
// unkeyable (fail-closed) functions.
func (ix *Indexer) FuncKey(name string) (Key, bool) {
	if !ix.keyable[name] {
		return Key{}, false
	}
	return ix.funcKey[name], true
}

// NodeRef resolves a node ID to its owning declaration and pre-order
// ordinal within it.
func (ix *Indexer) NodeRef(id ast.NodeID) (fn string, ord int, ok bool) {
	if int(id) < 0 || int(id) >= len(ix.refOf) {
		return "", 0, false
	}
	r := ix.refOf[id]
	return r.Fn, r.Ord, r.Fn != ""
}

// NodeAt resolves (declaration, ordinal) back to the node of the current
// parse.
func (ix *Indexer) NodeAt(fn string, ord int) (ast.Node, bool) {
	ns := ix.nodes[fn]
	if ord < 0 || ord >= len(ns) {
		return nil, false
	}
	return ns[ord], true
}

// ObjKey returns the canonical key of an abstract object ("" when the
// object is unkeyable).
func (ix *Indexer) ObjKey(o pointsto.ObjID) string {
	if int(o) < 0 || int(o) >= len(ix.objKeys) {
		return ""
	}
	return ix.objKeys[o]
}

// ObjByKey resolves a canonical object key in the current analysis.
func (ix *Indexer) ObjByKey(k string) (pointsto.ObjID, bool) {
	o, ok := ix.objOf[k]
	return o, ok
}

// checkUniqueNames enforces the keying precondition that top-level names
// identify declarations: a duplicate function, global, or struct name
// makes canonical keys ambiguous, so the whole program fails closed.
func (ix *Indexer) checkUniqueNames() {
	seen := make(map[string]bool)
	for _, fn := range ix.info.File.Funcs {
		if seen["f:"+fn.Name] {
			ix.invalid = true
		}
		seen["f:"+fn.Name] = true
	}
	for _, g := range ix.info.File.Globals {
		if seen["g:"+g.Name] {
			ix.invalid = true
		}
		seen["g:"+g.Name] = true
	}
	for _, s := range ix.info.File.Structs {
		if seen["s:"+s.Name] {
			ix.invalid = true
		}
		seen["s:"+s.Name] = true
	}
}

// buildOrdinals assigns every node its (owner declaration, pre-order
// ordinal) coordinate. Function declarations own their whole subtree;
// global initializer expressions are owned by "g:<name>" pseudo-decls.
func (ix *Indexer) buildOrdinals() {
	index := func(owner string, root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			ix.refOf[n.ID()] = nodeRef{Fn: owner, Ord: len(ix.nodes[owner])}
			ix.nodes[owner] = append(ix.nodes[owner], n)
			return true
		})
	}
	for _, fn := range ix.info.File.Funcs {
		index(fn.Name, fn)
	}
	for _, g := range ix.info.File.Globals {
		index("g:"+g.Name, g)
	}
}

// buildObjKeys computes the canonical key of every abstract object and
// the reverse index. Ambiguous keys (two objects, one name) are dropped
// from both directions, marking the objects unkeyable.
func (ix *Indexer) buildObjKeys() {
	ix.objKeys = make([]string, len(ix.pta.Objects))
	count := make(map[string]int)
	for i, o := range ix.pta.Objects {
		k := ix.canonicalObjKey(o)
		ix.objKeys[i] = k
		if k != "" {
			count[k]++
		}
	}
	for i, k := range ix.objKeys {
		if k == "" {
			continue
		}
		if count[k] > 1 {
			ix.objKeys[i] = ""
			continue
		}
		ix.objOf[k] = pointsto.ObjID(i)
	}

	// Precompute each object's lexicographic rank so fragment hashing can
	// order may-point-to sets with integer compares instead of sorting
	// strings at every node.
	ids := make([]int, 0, len(ix.objKeys))
	for i, k := range ix.objKeys {
		if k != "" {
			ids = append(ids, i)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ix.objKeys[ids[a]] < ix.objKeys[ids[b]] })
	ix.objRank = make([]int32, len(ix.objKeys))
	for i := range ix.objRank {
		ix.objRank[i] = -1
	}
	for r, id := range ids {
		ix.objRank[id] = int32(r)
	}
}

func (ix *Indexer) canonicalObjKey(o *pointsto.Obj) string {
	switch o.Kind {
	case pointsto.OGlobal:
		return "G#" + o.Var.Name
	case pointsto.OLocal:
		return "L#" + o.Var.Func.Name + "#" + o.Var.Name + "#" + strconv.Itoa(o.Var.Index)
	case pointsto.OParam:
		return "P#" + o.Var.Func.Name + "#" + strconv.Itoa(o.Var.Index) + "#" + o.Var.Name
	case pointsto.OHeap:
		if int(o.Site) < 0 || int(o.Site) >= len(ix.refOf) {
			return ""
		}
		ref := ix.refOf[o.Site]
		if ref.Fn == "" {
			return ""
		}
		return "H#" + ref.Fn + "#" + strconv.Itoa(ref.Ord)
	case pointsto.OField:
		return "F#" + o.Struct + "#" + o.Field
	case pointsto.OFunc:
		return "FN#" + o.Fn.Name
	case pointsto.OStr:
		return "S#" + o.Str
	}
	return ""
}

// declPrint renders one declaration canonically (whitespace- and
// position-independent).
func declPrint(d ast.Decl) string {
	return ast.Print(&ast.File{Decls: []ast.Decl{d}})
}

// contentHash is the canonical-source component of a function's key.
func contentHash(fn *types.FuncInfo) [sha256.Size]byte {
	return sha256.Sum256(append([]byte("src\x00"), []byte(declPrint(fn.Decl))...))
}

// preludeHash covers the declarations outside the function body the
// summary can depend on: every struct layout, plus the printed
// declarations of the globals the function names. Referenced-only global
// coverage keeps unrelated global edits out of the key (and lets
// context-free functions share keys across a batch corpus); struct edits
// invalidate broadly, which is the fail-closed direction.
func (ix *Indexer) preludeHash(fn *types.FuncInfo, structs []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte("prelude\x00"))
	h.Write(structs)

	var globals []string
	seen := make(map[string]bool)
	ast.Inspect(fn.Decl, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		o := ix.info.Uses[id.ID()]
		if o == nil || o.Kind != types.ObjGlobal || seen[o.Name] {
			return true
		}
		seen[o.Name] = true
		if vd, ok := o.Decl.(*ast.VarDecl); ok {
			// globalPrint is populated before hashing starts and read-only
			// here (preludeHash runs on concurrent workers).
			p, cached := ix.globalPrint[o.Name]
			if !cached {
				p = declPrint(vd)
			}
			globals = append(globals, p)
		}
		return true
	})
	sort.Strings(globals)
	for _, g := range globals {
		h.Write([]byte(g))
		h.Write([]byte{0})
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// fragmentHash digests, node by node in ordinal order, everything the
// RELAY walk reads about this function from the semantic analyses:
// expression types, identifier bindings, may-point-to sets (as canonical
// object keys), and call/spawn target resolution. Two parses with equal
// fragments resolve the function identically, so the cached summary is
// exact. ok is false when any touched object is unkeyable.
func (ix *Indexer) fragmentHash(fn *types.FuncInfo, buf *bytes.Buffer) ([sha256.Size]byte, bool) {
	buf.Reset()
	buf.WriteString("frag\x00")
	ok := true

	var scratch [24]byte
	writeInt := func(v int) { buf.Write(strconv.AppendInt(scratch[:0], int64(v), 10)) }

	writeObjs := func(ids []pointsto.ObjID) {
		// Lexicographic order: ObjID order can permute across parses for
		// an unchanged function, canonical keys cannot. The precomputed
		// rank realizes that order with integer compares.
		sorted := scratchIDs(ids)
		sort.Slice(sorted, func(a, b int) bool { return ix.objRank[sorted[a]] < ix.objRank[sorted[b]] })
		for _, o := range sorted {
			if ix.objRank[o] < 0 {
				ok = false
			}
			buf.WriteString(ix.objKeys[o])
			buf.WriteByte(1)
		}
	}

	for ord, n := range ix.nodes[fn.Name] {
		buf.WriteByte('|')
		writeInt(ord)
		if e, isExpr := n.(ast.Expr); isExpr {
			if t := ix.info.Types[e.ID()]; t != nil {
				// typeStr is populated before hashing starts and read-only
				// here (fragmentHash runs on concurrent workers).
				ts, cached := ix.typeStr[t]
				if !cached {
					ts = t.String()
				}
				buf.WriteString("t:")
				buf.WriteString(ts)
			}
		}
		if id, isIdent := n.(*ast.Ident); isIdent {
			if o := ix.info.Uses[id.ID()]; o != nil {
				// A global's Index is its file position — adding an unrelated
				// global would shift it; the G#name key already identifies it.
				slot := o.Index
				if o.Kind == types.ObjGlobal {
					slot = -1
				}
				buf.WriteString("u:")
				writeInt(int(o.Kind))
				buf.WriteByte(',')
				writeInt(slot)
				if o.AddrTaken {
					buf.WriteString(",true,")
				} else {
					buf.WriteString(",false,")
				}
				writeInt(int(o.Builtin))
				buf.WriteByte(';')
				switch o.Kind {
				case types.ObjGlobal, types.ObjLocal, types.ObjParam:
					if oid, has := ix.pta.VarObjID(o); has {
						writeObjs([]pointsto.ObjID{oid})
					}
				}
			}
		}
		if objs := ix.pta.ObjectsOf(n.ID()); len(objs) > 0 {
			buf.WriteString("pts:")
			writeObjs(objs)
		}
		if target := ix.info.CallTargets[n.ID()]; target != nil {
			buf.WriteString("call:")
			buf.WriteString(target.Name)
			buf.WriteByte(',')
			writeInt(int(target.Kind))
			buf.WriteByte(',')
			writeInt(int(target.Builtin))
			buf.WriteByte(';')
		}
		if callees := ix.pta.CallTargets[n.ID()]; len(callees) > 0 {
			buf.WriteString("icall:")
			writeNames(buf, callees)
		}
		if spawns := ix.pta.SpawnTargets[n.ID()]; len(spawns) > 0 {
			buf.WriteString("spawn:")
			writeNames(buf, spawns)
		}
	}
	return sha256.Sum256(buf.Bytes()), ok
}

// scratchIDs copies a may-point-to set so sorting does not mutate the
// analysis's slice.
func scratchIDs(ids []pointsto.ObjID) []pointsto.ObjID {
	out := make([]pointsto.ObjID, len(ids))
	copy(out, ids)
	return out
}

// writeNames writes function names in lexicographic order (resolution
// order follows ObjIDs, which are not parse-stable).
func writeNames(buf *bytes.Buffer, fns []*types.FuncInfo) {
	names := make([]string, len(fns))
	for i, f := range fns {
		names[i] = f.Name
	}
	sort.Strings(names)
	for _, n := range names {
		buf.WriteString(n)
		buf.WriteByte(1)
	}
}

// computeKeys derives per-SCC and per-function keys bottom-up over the
// callgraph condensation. A function's key transitively embeds its callee
// SCCs' keys, so key equality implies the entire callee cone is
// unchanged — the property that makes "reuse every clean summary" sound.
func (ix *Indexer) computeKeys(workers int) {
	sccKey := make([]Key, len(ix.cg.SCCs))
	sccOK := make([]bool, len(ix.cg.SCCs))
	structs := ix.structsPrint()

	// Memoize sequentially everything the hashers read, so the maps are
	// read-only once workers start: the canonical prints of all global
	// declarations and the rendering of every expression type.
	for _, g := range ix.info.File.Globals {
		ix.globalPrint[g.Name] = declPrint(g)
	}
	for _, t := range ix.info.Types {
		if t == nil {
			continue
		}
		if _, cached := ix.typeStr[t]; !cached {
			ix.typeStr[t] = t.String()
		}
	}

	// The per-function content/prelude/fragment hashes are independent of
	// each other and of the SCC structure; fan them over the worker count.
	// Keys stay worker-count independent because the combination below is
	// sequential and bottom-up.
	fns := ix.info.FuncList
	type fnHashes struct {
		content, prelude, fragment [sha256.Size]byte
		ok                         bool
	}
	hs := make([]fnHashes, len(fns))
	hashFn := func(i int, buf *bytes.Buffer) {
		hs[i].content = contentHash(fns[i])
		hs[i].prelude = ix.preludeHash(fns[i], structs)
		hs[i].fragment, hs[i].ok = ix.fragmentHash(fns[i], buf)
	}
	if workers > len(fns) {
		workers = len(fns)
	}
	if workers > 1 {
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				for {
					i := int(next.Add(1))
					if i >= len(fns) {
						return
					}
					hashFn(i, &buf)
				}
			}()
		}
		wg.Wait()
	} else {
		var buf bytes.Buffer
		for i := range fns {
			hashFn(i, &buf)
		}
	}
	hashOf := make(map[string]*fnHashes, len(fns))
	for i, fn := range fns {
		hashOf[fn.Name] = &hs[i]
	}

	for i, scc := range ix.cg.SCCs {
		ok := !ix.invalid
		h := sha256.New()
		h.Write([]byte("scc\x00"))
		for _, fn := range scc { // name-sorted within the SCC: deterministic
			fh := hashOf[fn.Name]
			if !fh.ok {
				ok = false
			}
			h.Write([]byte(fn.Name))
			h.Write([]byte{0})
			h.Write(fh.content[:])
			h.Write(fh.prelude[:])
			h.Write(fh.fragment[:])
		}

		// Callee SCC keys, deduplicated and byte-sorted: SCC indexes shift
		// when unrelated declarations move, key bytes do not.
		var callees [][]byte
		calleeSeen := make(map[int]bool)
		for _, fn := range scc {
			for _, callee := range ix.cg.CalleesOf(fn) {
				j := ix.cg.SCCOf(callee)
				if j == i || calleeSeen[j] {
					continue
				}
				calleeSeen[j] = true
				if !sccOK[j] {
					ok = false
				}
				callees = append(callees, sccKey[j][:])
			}
		}
		sort.Slice(callees, func(a, b int) bool { return bytes.Compare(callees[a], callees[b]) < 0 })
		for _, ck := range callees {
			h.Write(ck)
		}
		h.Sum(sccKey[i][:0])
		sccOK[i] = ok

		for _, fn := range scc {
			ix.keyable[fn.Name] = ok
			if ok {
				fh := sha256.New()
				fh.Write([]byte("fn\x00"))
				fh.Write(sccKey[i][:])
				fh.Write([]byte(fn.Name))
				var k Key
				fh.Sum(k[:0])
				ix.funcKey[fn.Name] = k
			}
		}
	}
}

// structsPrint renders all struct declarations in file order; every
// function's prelude includes it (struct layout edits invalidate broadly,
// fail-closed).
func (ix *Indexer) structsPrint() []byte {
	var buf bytes.Buffer
	for _, s := range ix.info.File.Structs {
		buf.WriteString(declPrint(s))
		buf.WriteByte(0)
	}
	return buf.Bytes()
}
