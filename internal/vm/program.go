// Package vm implements the execution substrate of the Chimera
// reproduction: a bytecode compiler for MiniC and a simulated-multicore
// interpreter with a deterministic cycle cost model.
//
// The VM stands in for the paper's hardware/OS testbed (8-core Xeon, patched
// Linux 2.6.26 + pthreads). Each thread has its own simulated clock; threads
// advance in parallel and synchronize at locks, barriers, condition
// variables, weak-locks and I/O. All measured quantities in the evaluation
// (recording overhead, contention breakdown, log volumes, proportion of
// instrumented operations) are computed from this simulated timeline, so
// relative overheads are deterministic and reproducible.
package vm

import (
	"fmt"

	"repro/internal/minic/ast"
	"repro/internal/minic/types"
)

// Op is a bytecode opcode for the stack-machine VM.
type Op int

// The opcodes.
const (
	OpNop Op = iota

	OpConst // push Val
	OpAddrG // push globalBase+Val (address of global)
	OpAddrL // push fp+Val (address of local/param slot)
	OpLoad  // pop addr, push mem[addr]
	OpStore // pop value, pop addr, mem[addr] = value
	OpDup   // duplicate top of stack
	OpPop   // discard top of stack

	// Binary arithmetic: pop y, pop x, push x OP y.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpShl
	OpShr
	OpAnd
	OpOr
	OpXor
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// Unary: pop x, push OP x.
	OpNeg
	OpNot

	OpJmp // jump to Val
	OpJz  // pop; jump to Val if zero
	OpJnz // pop; jump to Val if nonzero

	OpCall    // call function index Val with N args on stack
	OpCallI   // pop N args then a function value; indirect call
	OpRet     // pop return value, return to caller
	OpRetVoid // return 0 to caller

	OpBuiltin // execute builtin op Val with N args on stack
)

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpAddrG: "addrg", OpAddrL: "addrl",
	OpLoad: "load", OpStore: "store", OpDup: "dup", OpPop: "pop",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpShl: "shl", OpShr: "shr", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpNeg: "neg", OpNot: "not",
	OpJmp: "jmp", OpJz: "jz", OpJnz: "jnz",
	OpCall: "call", OpCallI: "calli", OpRet: "ret", OpRetVoid: "retvoid",
	OpBuiltin: "builtin",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Instr is one bytecode instruction. Node attributes the instruction to the
// source AST node (loads/stores carry the lvalue expression node, which is
// how dynamic access counts and the race checker map back to RELAY's
// report).
type Instr struct {
	Op   Op
	Val  int64
	N    int // argument count for call/builtin
	Node ast.NodeID
}

// String renders the instruction for disassembly.
func (i Instr) String() string {
	switch i.Op {
	case OpConst, OpAddrG, OpAddrL, OpJmp, OpJz, OpJnz:
		return fmt.Sprintf("%s %d", i.Op, i.Val)
	case OpCall:
		return fmt.Sprintf("call f%d/%d", i.Val, i.N)
	case OpCallI:
		return fmt.Sprintf("calli/%d", i.N)
	case OpBuiltin:
		return fmt.Sprintf("builtin %s/%d", types.BuiltinName(types.BuiltinOp(i.Val)), i.N)
	}
	return i.Op.String()
}

// FuncCode is a compiled function.
type FuncCode struct {
	Name       string
	Index      int
	NParams    int
	FrameWords int64 // params + locals, in words
	RetVoid    bool
	Code       []Instr

	// LocalOffset maps semantic objects (params and locals) to their
	// frame-relative word offsets.
	LocalOffset map[*types.Object]int64
}

// Address-space layout constants. The VM uses a flat word-addressed memory
// (allocated page by page as it is written, see memory.go); function
// values live in a disjoint "text" range so that data and code addresses
// never collide.
const (
	// GlobalBase is the address of the first global word. Address 0 and a
	// few low words are permanently invalid so that null-pointer
	// dereferences fault.
	GlobalBase = 16

	// FuncValueBase is the encoding base for function values: function i
	// is the value FuncValueBase + i.
	FuncValueBase = int64(1) << 40

	// DefaultHeapWords is the heap size.
	DefaultHeapWords = 1 << 22

	// stackWords is the per-thread stack size and maxThreads the number
	// of threads a run may create; each thread gets its own stack slot.
	stackWords = 1 << 16
	maxThreads = 64
)

// Program is a compiled MiniC program ready to run.
type Program struct {
	Info  *types.Info
	Funcs []*FuncCode

	FuncIdx map[string]int

	// GlobalWords is the initial global segment image (globals, then
	// string literal data), based at GlobalBase.
	GlobalWords []int64

	// GlobalAddr maps each global object to its absolute address.
	GlobalAddr map[*types.Object]int64

	// StringAddr maps each distinct string literal to the address of its
	// NUL-terminated word array.
	StringAddr map[string]int64

	// HeapBase is the first heap address (right after globals/strings).
	HeapBase int64
}

// FuncValue returns the VM value representing function index i.
func FuncValue(i int) int64 { return FuncValueBase + int64(i) }

// FuncIndexOf returns the function index encoded in a function value, or -1
// if v is not a function value.
func FuncIndexOf(v int64, nfuncs int) int {
	if v >= FuncValueBase && v < FuncValueBase+int64(nfuncs) {
		return int(v - FuncValueBase)
	}
	return -1
}

// Disasm renders the bytecode of all functions, for debugging and tests.
func (p *Program) Disasm() string {
	s := ""
	for _, f := range p.Funcs {
		s += fmt.Sprintf("func %s (f%d, %d params, %d frame words):\n",
			f.Name, f.Index, f.NParams, f.FrameWords)
		for i, in := range f.Code {
			s += fmt.Sprintf("  %4d  %s\n", i, in)
		}
	}
	return s
}
