// Package ast declares the abstract syntax tree of MiniC.
//
// The tree is deliberately close to CIL's view of C: expressions are typed
// lvalues/rvalues over ints, pointers, arrays and structs; loops are
// structured (no goto), so the loop bodies that Chimera's symbolic bounds
// analysis reasons about are syntactic nodes; synchronization and thread
// operations are ordinary calls to builtin functions that later stages
// recognize by name.
//
// Every node carries a unique ID assigned at parse time. Analyses use IDs as
// stable map keys, and the instrumenter's clones preserve them so results
// computed on the original tree can be applied to the transformed one.
package ast

import (
	"repro/internal/minic/token"
)

// NodeID uniquely identifies an AST node within one parsed File.
type NodeID int

// Node is the interface implemented by all AST nodes.
type Node interface {
	Pos() token.Pos
	ID() NodeID
}

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// Decl is a top-level declaration node.
type Decl interface {
	Node
	declNode()
}

type base struct {
	NodePos token.Pos
	NodeID  NodeID
}

// Pos returns the source position of the node.
func (b *base) Pos() token.Pos { return b.NodePos }

// ID returns the unique node ID.
func (b *base) ID() NodeID { return b.NodeID }

// SetMeta sets the position and ID; used by the parser and by passes that
// synthesize nodes.
func (b *base) SetMeta(pos token.Pos, id NodeID) { b.NodePos = pos; b.NodeID = id }

// ---------------------------------------------------------------------------
// Types (syntactic)

// TypeKind distinguishes the syntactic base types.
type TypeKind int

// The syntactic base type kinds.
const (
	TypeInt TypeKind = iota
	TypeVoid
	TypeStruct
)

// TypeName is a syntactic type: a base type, a pointer depth, and optional
// array lengths (outermost first). `int *a[10]` is {Int, Stars:1, Array:[10]}:
// an array of 10 pointers to int, matching C declarator semantics for the
// restricted forms MiniC supports.
type TypeName struct {
	Kind       TypeKind
	StructName string // for TypeStruct
	Stars      int    // pointer depth
	ArrayLens  []int64
}

// ---------------------------------------------------------------------------
// Expressions

// IntLit is an integer literal.
type IntLit struct {
	base
	Value int64
}

// StringLit is a string literal; it evaluates to the address of a static
// NUL-terminated word array holding the bytes.
type StringLit struct {
	base
	Value string
}

// Ident is a use of a named variable or function.
type Ident struct {
	base
	Name string
}

// Unary is a unary expression: -x, !x, *p (deref), &lv (address-of).
type Unary struct {
	base
	Op token.Kind // MINUS, NOT, STAR, AMP
	X  Expr
}

// Binary is a binary expression with a C-precedence operator.
type Binary struct {
	base
	Op   token.Kind
	X, Y Expr
}

// Cond is the ternary conditional c ? a : b.
type Cond struct {
	base
	CondE      Expr
	Then, Else Expr
}

// Index is array or pointer indexing x[i].
type Index struct {
	base
	X     Expr
	Index Expr
}

// Field is struct member access: x.Name, or x->Name when Arrow is set.
type Field struct {
	base
	X     Expr
	Name  string
	Arrow bool
}

// Call is a function call. Fun is an Ident naming a function or builtin, or
// an arbitrary expression evaluating to a function pointer.
type Call struct {
	base
	Fun  Expr
	Args []Expr
}

// Sizeof is sizeof(type); it folds to a word count at type check.
type Sizeof struct {
	base
	Type TypeName
}

func (*IntLit) exprNode()    {}
func (*StringLit) exprNode() {}
func (*Ident) exprNode()     {}
func (*Unary) exprNode()     {}
func (*Binary) exprNode()    {}
func (*Cond) exprNode()      {}
func (*Index) exprNode()     {}
func (*Field) exprNode()     {}
func (*Call) exprNode()      {}
func (*Sizeof) exprNode()    {}

// ---------------------------------------------------------------------------
// Statements

// Block is { stmts... }.
type Block struct {
	base
	Stmts []Stmt
}

// DeclStmt declares a local variable, with optional initializer.
type DeclStmt struct {
	base
	Decl *VarDecl
}

// AssignStmt is lhs = rhs or a compound assignment (+=, -=, ...).
type AssignStmt struct {
	base
	Op  token.Kind // ASSIGN, ADD_ASSIGN, ...
	LHS Expr
	RHS Expr
}

// IncDecStmt is lv++ or lv--.
type IncDecStmt struct {
	base
	Op token.Kind // INC or DEC
	X  Expr
}

// ExprStmt evaluates an expression for its side effects (a call).
type ExprStmt struct {
	base
	X Expr
}

// IfStmt is if (cond) then [else else].
type IfStmt struct {
	base
	CondE Expr
	Then  *Block
	Else  Stmt // *Block, *IfStmt, or nil
}

// WhileStmt is while (cond) body.
type WhileStmt struct {
	base
	CondE Expr
	Body  *Block
}

// ForStmt is for (init; cond; post) body. Init and Post may be nil; Cond may
// be nil (infinite loop).
type ForStmt struct {
	base
	Init  Stmt // *DeclStmt, *AssignStmt, *IncDecStmt, or nil
	CondE Expr
	Post  Stmt
	Body  *Block
}

// ReturnStmt is return [expr].
type ReturnStmt struct {
	base
	X Expr // nil for bare return
}

// BreakStmt is break.
type BreakStmt struct{ base }

// ContinueStmt is continue.
type ContinueStmt struct{ base }

func (*Block) stmtNode()        {}
func (*DeclStmt) stmtNode()     {}
func (*AssignStmt) stmtNode()   {}
func (*IncDecStmt) stmtNode()   {}
func (*ExprStmt) stmtNode()     {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*ForStmt) stmtNode()      {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}

// ---------------------------------------------------------------------------
// Declarations

// VarDecl declares a variable (global or local).
type VarDecl struct {
	base
	Name string
	Type TypeName
	Init Expr // optional
}

// FieldDecl is one field of a struct.
type FieldDecl struct {
	base
	Name string
	Type TypeName
}

// StructDecl declares struct Name { fields }.
type StructDecl struct {
	base
	Name   string
	Fields []*FieldDecl
}

// ParamDecl is one function parameter.
type ParamDecl struct {
	base
	Name string
	Type TypeName
}

// FuncDecl declares a function with a body.
type FuncDecl struct {
	base
	Name   string
	Params []*ParamDecl
	Ret    TypeName
	Body   *Block
}

func (*VarDecl) declNode()    {}
func (*StructDecl) declNode() {}
func (*FuncDecl) declNode()   {}

// File is a parsed MiniC translation unit.
type File struct {
	Name    string // source name, for diagnostics
	Decls   []Decl
	MaxID   NodeID // all node IDs in the file are < MaxID
	Structs []*StructDecl
	Globals []*VarDecl
	Funcs   []*FuncDecl
}

// Func returns the function declaration with the given name, or nil.
func (f *File) Func(name string) *FuncDecl {
	for _, fn := range f.Funcs {
		if fn.Name == name {
			return fn
		}
	}
	return nil
}

// Struct returns the struct declaration with the given name, or nil.
func (f *File) Struct(name string) *StructDecl {
	for _, s := range f.Structs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Global returns the global variable declaration with the given name, or nil.
func (f *File) Global(name string) *VarDecl {
	for _, g := range f.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}
