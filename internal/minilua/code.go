package minilua

import (
	"chef/internal/interp"
	"chef/internal/lowlevel"
)

// Vanilla and Optimized are interp.Vanilla and interp.Optimized under the
// names the benchmark harness (perfbench) still uses.
var (
	Vanilla   = interp.Vanilla
	Optimized = interp.Optimized
)

// Low-level program counters of the MiniLua interpreter (disjoint from
// MiniPy's so a process exploring both keeps sites distinct).
const (
	llpcBase lowlevel.LLPC = 0x2000 + iota
	llpcJumpCond
	llpcForLoop
	llpcIntDivZero
	llpcIntSign
	llpcIntEq
	llpcStrEqFast
	llpcStrEqFinal
	llpcStrLtByte
	llpcStrFindPos
	llpcStrIntern
	llpcTableBucket
	llpcTableKeyCmp
	llpcTableArrayIdx
	llpcStrAlloc
	llpcToNumber
	llpcStrCase
)

// OpCode enumerates MiniLua bytecode operations.
type OpCode uint32

// Bytecode operations.
const (
	OpNop   OpCode = iota
	OpLoadK        // push Consts[arg]
	OpLoadNil
	OpLoadBool  // arg 0/1
	OpGetLocal  // push slot arg
	OpSetLocal  // pop into slot arg
	OpGetGlobal // push global Names[arg]
	OpSetGlobal
	OpNewTable
	OpGetIndex     // pop key, table
	OpSetIndex     // pop key, table, value
	OpSetIndex2    // pop value, key, table
	OpSetIndexKeep // pop value, key; table stays (constructor)
	OpGetField     // Names[arg]
	OpSetField     // pop table, value
	OpSelfField    // pop table; push table, table[Names[arg]] (method call setup)
	OpCall         // arg = #args
	OpReturn       // arg: 0 no value (push nil), 1 value on stack
	OpJump
	OpJumpIfNot     // pop
	OpJumpIfNotKeep // peek (and)
	OpJumpIfKeep    // peek (or)
	OpPop
	OpBin // arg = binary op kind
	OpUnm // unary minus
	OpNot
	OpLen
	OpConcat
	OpForPrep  // numeric for: pops step, limit, init; stores into slots arg..arg+2
	OpForLoop  // arg = jump target on loop continue; slots from Arg2 packed
	OpTForCall // generic for over table iterator
	OpClosure  // push function from Consts[arg] (*ProtoVal)
	OpAppend   // pop value, table: array append (constructor sugar)
)

// Binary kinds for OpBin.
const (
	luaAdd = iota
	luaSub
	luaMul
	luaDiv
	luaMod
	luaEq
	luaNe
	luaLt
	luaLe
	luaGt
	luaGe
)

// Instr is one instruction. B carries the auxiliary operand for the few
// two-operand instructions (numeric for).
type Instr struct {
	Op   OpCode
	Arg  int32
	B    int32
	Line int
}

// Proto is a compiled MiniLua function prototype.
type Proto struct {
	Name      string
	BlockID   uint32
	NumParams int
	NumSlots  int
	Instrs    []Instr
	Consts    []Value
	Names     []string
}

// HLPCAt returns the HLPC of instruction offset i: function address and
// instruction offset, as §5.2 constructs Lua HLPCs.
func (p *Proto) HLPCAt(i int) uint64 { return uint64(p.BlockID)<<16 | uint64(uint16(i)) }

// ProtoVal wraps a Proto as a constant.
type ProtoVal struct{ Proto *Proto }

// TypeName implements Value.
func (*ProtoVal) TypeName() string { return "proto" }

// Program is a compiled MiniLua chunk.
type Program struct {
	Main   *Proto
	Protos []*Proto
	Source string
}

// ProtoByID returns the prototype with the given block id.
func (p *Program) ProtoByID(id uint32) *Proto {
	if int(id) < len(p.Protos) {
		return p.Protos[id]
	}
	return nil
}

// LineOf maps an HLPC to its source line.
func (p *Program) LineOf(hlpc uint64) int {
	pr := p.ProtoByID(uint32(hlpc >> 16))
	if pr == nil {
		return 0
	}
	off := int(hlpc & 0xffff)
	if off >= len(pr.Instrs) {
		return 0
	}
	return pr.Instrs[off].Line
}

// CoverableLines returns all source lines carrying instructions.
func (p *Program) CoverableLines() map[int]bool {
	lines := map[int]bool{}
	for _, pr := range p.Protos {
		for _, in := range pr.Instrs {
			if in.Line > 0 {
				lines[in.Line] = true
			}
		}
	}
	return lines
}
