package minipy

import (
	"fmt"

	"chef/internal/interp"
)

// OpCode enumerates MiniPy bytecode operations. Opcode values are reported
// to CHEF through log_pc and drive the branching-opcode inference of §3.4.
type OpCode uint32

// Bytecode operations.
const (
	OpNop       OpCode = iota
	OpLoadConst        // push Consts[arg]
	OpLoadName         // push name (local → global → builtin)
	OpStoreName        // pop into name (local, or global when declared)
	OpDelName
	OpPop
	OpDup
	OpBinary  // arg = binKind
	OpCompare // arg = cmpKind
	OpUnaryNeg
	OpUnaryNot
	OpJump            // ip = arg
	OpJumpIfFalse     // pop, branch
	OpJumpIfTrue      // pop, branch
	OpJumpIfFalseKeep // peek; jump keeping value (for and)
	OpJumpIfTrueKeep  // peek; jump keeping value (for or)
	OpCall            // arg = #args; stack: fn, args...
	OpReturn          // pop return value
	OpBuildList       // arg = n
	OpBuildDict       // arg = n pairs
	OpIndex           // pop idx, obj; push obj[idx]
	OpStoreIndex      // pop idx, obj, val
	OpDelIndex        // pop idx, obj
	OpSlice           // arg bit0 = has lo, bit1 = has hi
	OpAttr            // push obj.name (arg = name idx)
	OpStoreAttr       // pop obj, val
	OpGetIter
	OpForIter      // push next or jump arg when exhausted
	OpUnpack2      // pop 2-list, push both elements
	OpSetupExcept  // push except block, handler at arg
	OpSetupFinally // push finally block, handler at arg
	OpPopBlock
	OpEndFinally // re-raise pending exception if any
	OpRaise      // arg: 0 bare re-raise, 1 pop exception value
	OpExcMatch   // peek exception, push bool: matches Names[arg]
	OpBindExc    // pop exception, bind to Names[arg] (arg<0: discard)
	OpMakeFunc   // push function from Consts[arg] (*CodeVal)
	OpMakeClass  // push class from Consts[arg] (*ClassSpecVal)
	OpPrint      // arg = n values
)

var opNames = map[OpCode]string{
	OpNop: "NOP", OpLoadConst: "LOAD_CONST", OpLoadName: "LOAD_NAME",
	OpStoreName: "STORE_NAME", OpDelName: "DEL_NAME", OpPop: "POP", OpDup: "DUP",
	OpBinary: "BINARY", OpCompare: "COMPARE", OpUnaryNeg: "UNARY_NEG",
	OpUnaryNot: "UNARY_NOT", OpJump: "JUMP", OpJumpIfFalse: "JUMP_IF_FALSE",
	OpJumpIfTrue: "JUMP_IF_TRUE", OpJumpIfFalseKeep: "JUMP_IF_FALSE_KEEP",
	OpJumpIfTrueKeep: "JUMP_IF_TRUE_KEEP", OpCall: "CALL", OpReturn: "RETURN",
	OpBuildList: "BUILD_LIST", OpBuildDict: "BUILD_DICT", OpIndex: "INDEX",
	OpStoreIndex: "STORE_INDEX", OpDelIndex: "DEL_INDEX", OpSlice: "SLICE",
	OpAttr: "ATTR", OpStoreAttr: "STORE_ATTR", OpGetIter: "GET_ITER",
	OpForIter: "FOR_ITER", OpUnpack2: "UNPACK2", OpSetupExcept: "SETUP_EXCEPT",
	OpSetupFinally: "SETUP_FINALLY", OpPopBlock: "POP_BLOCK",
	OpEndFinally: "END_FINALLY", OpRaise: "RAISE", OpExcMatch: "EXC_MATCH",
	OpBindExc: "BIND_EXC", OpMakeFunc: "MAKE_FUNC", OpMakeClass: "MAKE_CLASS",
	OpPrint: "PRINT",
}

func (o OpCode) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("OP(%d)", uint32(o))
}

// Binary operation kinds (OpBinary arg).
const (
	binAdd = iota
	binSub
	binMul
	binDiv // Python 2 semantics: floor division for ints
	binFloorDiv
	binMod
)

// Comparison kinds (OpCompare arg).
const (
	cmpEq = iota
	cmpNe
	cmpLt
	cmpLe
	cmpGt
	cmpGe
	cmpIn
	cmpNotIn
)

// Instr is one bytecode instruction.
type Instr struct {
	Op   OpCode
	Arg  int32
	Line int
}

// Code is a compiled block: a module body, function body or method body —
// MiniPy's equivalent of a CPython code object. BlockID is globally unique
// within a Program; the HLPC reported to CHEF is BlockID<<16 | instruction
// offset, matching the paper's Python HLPC construction ("the concatenation
// of the unique block address of the top frame and the current instruction
// offset").
//
// A function's locals live in slots indexed like Names, so a name is its
// own slot and resolving it hashes nothing: the compiler deduplicates Names
// per block, and a nil slot is an unbound local.
type Code struct {
	Name     string
	BlockID  uint32
	Params   []string // Params[i] is Names[i], so parameter i is local slot i
	Defaults []Value  // aligned to the tail of Params; immutable literal values
	// Global[i] reports that Names[i] resolves in the module namespace:
	// every name of the module body, and the names a function declares
	// global anywhere in its body.
	Global   []bool
	Instrs   []Instr
	Consts   []Value
	Names    []string
	IsModule bool
}

// numLocals is the number of local slots a frame of c needs: one per name
// for a function body, none for the module body, whose names are global.
func (c *Code) numLocals() int {
	if c.IsModule {
		return 0
	}
	return len(c.Names)
}

// HLPCAt returns the high-level program counter of instruction offset i.
func (c *Code) HLPCAt(i int) uint64 { return uint64(c.BlockID)<<16 | uint64(uint16(i)) }

// CodeVal wraps a Code as a constant-pool Value.
type CodeVal struct{ Code *Code }

// TypeName implements Value.
func (*CodeVal) TypeName() string { return "code" }

// ClassSpec describes a class literal for OpMakeClass.
type ClassSpec struct {
	Name    string
	Base    string
	Methods []*Code
	Consts  map[string]Value
}

// ClassSpecVal wraps a ClassSpec as a constant-pool Value.
type ClassSpecVal struct{ Spec *ClassSpec }

// TypeName implements Value.
func (*ClassSpecVal) TypeName() string { return "classspec" }

// Program is a fully compiled MiniPy module.
type Program struct {
	Main    *Code
	Blocks  []*Code // all blocks, indexed by BlockID
	Source  string
	MaxLine int // the highest source line carrying an instruction

	images interp.PerConfig[*Image] // built by StartModule, on first use
}

// BlockByID returns the code block with the given id, or nil.
func (p *Program) BlockByID(id uint32) *Code {
	if int(id) < len(p.Blocks) {
		return p.Blocks[id]
	}
	return nil
}

// LineOf maps an HLPC back to its source line (0 when unknown), used for
// coverage measurement during replay.
func (p *Program) LineOf(hlpc uint64) int {
	blk := p.BlockByID(uint32(hlpc >> 16))
	if blk == nil {
		return 0
	}
	off := int(hlpc & 0xffff)
	if off >= len(blk.Instrs) {
		return 0
	}
	return blk.Instrs[off].Line
}

// CoverableLines returns the set of source lines that carry at least one
// instruction — the denominator for line-coverage reports (the paper's
// "coverable LOC").
func (p *Program) CoverableLines() map[int]bool {
	lines := map[int]bool{}
	for _, blk := range p.Blocks {
		for _, in := range blk.Instrs {
			if in.Line > 0 {
				lines[in.Line] = true
			}
		}
	}
	return lines
}
