// Package summary implements the content-addressed per-function artifact
// store behind Chimera's incremental static analysis.
//
// RELAY's bottom-up composition makes per-function keying natural: a
// function summary is a pure function of the function's source, the
// summaries of its callees, and the way the points-to world resolves the
// function's expressions. The package captures exactly those inputs in a
// SHA-256 key per function (Indexer), with per-function points-to
// fragments folded into the key, and maps keys to parse-independent
// ("portable") RELAY function summaries (Store).
//
// No product path uses the package: chimerad's tenants and every CLI load
// through core's whole-program cache, which measured faster than a warm
// store. What is left — Store, Indexer, relay.AnalyzeIncremental and
// core.LoadIncremental — backs the repository benchmark's summary.load
// probe and goes once that probe does (see docs/incremental.md).
//
// On re-analysis the dirty SCC cone falls out of the keying for free:
// a caller's key embeds its callee SCCs' keys, so editing one function
// changes the keys of exactly that function and its transitive callers —
// everything else hits the store and skips the RELAY walk. Invalidation is
// fail-closed: any keying ambiguity (duplicate declaration names, objects
// the canonical grammar cannot name, decode mismatches against the fresh
// AST) makes the affected functions key-less, which forces recomputation
// and blocks storing — never a stale hit.
//
// Portability is what makes reuse sound across reparses: artifacts never
// mention ast.NodeID, pointsto.ObjID or token.Pos, all of which shift when
// unrelated source moves. Nodes are named by their pre-order ordinal
// within the enclosing declaration, abstract objects by a canonical
// kind-qualified path (G#g, L#fn#x#slot, P#fn#i#x, H#fn#ord, F#s#f, FN#f,
// S#lit), and locks by RELAY's symbolic representatives, which are already
// parse-independent strings.
package summary

import "crypto/sha256"

// Key is a content address: SHA-256 over a function's canonical source,
// its resolution fragment, its referenced declarations, and its callee
// SCCs' keys.
type Key [sha256.Size]byte

// FuncAccess is one portable summary access: the parse-independent image
// of relay's summaryAccess. Node and Stmt are pre-order ordinals within
// Fn's declaration; Objs are canonical abstract-object keys; Plus/Minus
// are RELAY's symbolic lock representatives, portable as-is.
type FuncAccess struct {
	Fn    string // lexical containing function
	Node  int    // ordinal of the lvalue node within Fn's decl
	Stmt  int    // ordinal of the anchor statement within Fn's decl
	Write bool
	Objs  []string
	Plus  []string
	Minus []string
}

// FuncSummary is the portable encoding of one RELAY function summary:
// the guarded accesses in their exact analysis order (order is
// load-bearing — race-pair deduplication keeps the first pair seen, so a
// reordered decode would change which lockset the report shows) plus the
// net lock effect.
type FuncSummary struct {
	Fn       string
	Accesses []FuncAccess
	NetPlus  []string
	NetMinus []string
}
