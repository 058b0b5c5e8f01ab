// Package isa defines SVR32, the 32-bit RISC guest instruction set that
// every other layer of this repository operates on.
//
// SVR32 plays the role that IA-32 plays in the SuperPin paper: it is the
// machine language of the applications being instrumented. The dynamic
// instrumentation engine (internal/pin) decodes, instruments and executes
// SVR32 code; the SuperPin core (internal/core) records and detects slice
// signatures over SVR32 architectural state.
//
// The ISA is deliberately conventional:
//
//   - 32 general-purpose registers r0..r31, with r0 hard-wired to zero.
//     By software convention r29 is the stack pointer, r30 the frame
//     pointer and r31 the link register.
//   - A separate program counter, always word (4-byte) aligned.
//   - Fixed 32-bit instruction encodings in three formats (R, I, J).
//   - Memory is byte addressed; words are little endian and word accesses
//     must be aligned.
//   - System calls take their number in r1 and arguments in r2..r5, and
//     return a result in r1 (see internal/kernel for the call table).
package isa

import "fmt"

// Register conventions. These are software conventions only; the hardware
// treats all registers other than Zero uniformly.
const (
	RegZero = 0 // always reads as zero, writes ignored
	RegSys  = 1 // syscall number and result
	RegArg0 = 2 // first syscall / call argument
	RegArg1 = 3
	RegArg2 = 4
	RegArg3 = 5
	RegSP   = 29 // stack pointer
	RegFP   = 30 // frame pointer
	RegLR   = 31 // link register (return address)
)

// NumRegs is the number of general-purpose registers.
const NumRegs = 32

// WordSize is the size in bytes of a machine word and of every instruction.
const WordSize = 4

// Opcode identifies an SVR32 operation.
type Opcode uint8

// The complete SVR32 opcode set.
const (
	// R-type: op rd, rs1, rs2
	OpADD Opcode = iota
	OpSUB
	OpMUL
	OpDIV // signed; division by zero yields all-ones quotient, like RISC-V
	OpREM // signed remainder; rem by zero yields the dividend
	OpAND
	OpOR
	OpXOR
	OpSLL // shift amount is rs2 mod 32
	OpSRL
	OpSRA
	OpSLT  // rd = (rs1 < rs2) signed
	OpSLTU // rd = (rs1 < rs2) unsigned

	// I-type: op rd, rs1, imm16
	OpADDI
	OpANDI // logical immediates zero-extend
	OpORI
	OpXORI
	OpSLLI
	OpSRLI
	OpSRAI
	OpSLTI
	OpSLTIU
	OpLUI // rd = imm16 << 16 (rs1 ignored)

	// Memory: op rd, imm16(rs1)
	OpLW
	OpLB
	OpLBU
	OpSW
	OpSB

	// Conditional branches: op rs1, rs2, off16 (word offset from next pc)
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU

	// Jumps.
	OpJAL  // J-type: rd = next pc; pc += off21 words
	OpJALR // I-type: rd = next pc; pc = (rs1 + imm16) & ^3

	// System.
	OpSYSCALL // trap to the kernel

	numOpcodes
)

// NumOpcodes is the number of defined opcodes.
const NumOpcodes = int(numOpcodes)

// Inst is a decoded SVR32 instruction.
type Inst struct {
	Op           Opcode
	Rd, Rs1, Rs2 uint8
	Imm          int32 // sign- or zero-extended per the opcode
}

// Format describes an opcode's encoding format.
type Format uint8

// Encoding formats.
const (
	FormatR Format = iota // rd, rs1, rs2
	FormatI               // rd, rs1, imm16
	FormatJ               // rd, imm21
	FormatS               // no operands (SYSCALL)
)

type opInfo struct {
	name     string
	format   Format
	zeroExt  bool // immediate is zero-extended (logical immediates)
	load     bool
	store    bool
	condBr   bool
	uncondBr bool
	call     bool // writes a link register (JAL/JALR)
}

var opTable = [numOpcodes]opInfo{
	OpADD:     {name: "add", format: FormatR},
	OpSUB:     {name: "sub", format: FormatR},
	OpMUL:     {name: "mul", format: FormatR},
	OpDIV:     {name: "div", format: FormatR},
	OpREM:     {name: "rem", format: FormatR},
	OpAND:     {name: "and", format: FormatR},
	OpOR:      {name: "or", format: FormatR},
	OpXOR:     {name: "xor", format: FormatR},
	OpSLL:     {name: "sll", format: FormatR},
	OpSRL:     {name: "srl", format: FormatR},
	OpSRA:     {name: "sra", format: FormatR},
	OpSLT:     {name: "slt", format: FormatR},
	OpSLTU:    {name: "sltu", format: FormatR},
	OpADDI:    {name: "addi", format: FormatI},
	OpANDI:    {name: "andi", format: FormatI, zeroExt: true},
	OpORI:     {name: "ori", format: FormatI, zeroExt: true},
	OpXORI:    {name: "xori", format: FormatI, zeroExt: true},
	OpSLLI:    {name: "slli", format: FormatI, zeroExt: true},
	OpSRLI:    {name: "srli", format: FormatI, zeroExt: true},
	OpSRAI:    {name: "srai", format: FormatI, zeroExt: true},
	OpSLTI:    {name: "slti", format: FormatI},
	OpSLTIU:   {name: "sltiu", format: FormatI},
	OpLUI:     {name: "lui", format: FormatI, zeroExt: true},
	OpLW:      {name: "lw", format: FormatI, load: true},
	OpLB:      {name: "lb", format: FormatI, load: true},
	OpLBU:     {name: "lbu", format: FormatI, load: true},
	OpSW:      {name: "sw", format: FormatI, store: true},
	OpSB:      {name: "sb", format: FormatI, store: true},
	OpBEQ:     {name: "beq", format: FormatI, condBr: true},
	OpBNE:     {name: "bne", format: FormatI, condBr: true},
	OpBLT:     {name: "blt", format: FormatI, condBr: true},
	OpBGE:     {name: "bge", format: FormatI, condBr: true},
	OpBLTU:    {name: "bltu", format: FormatI, condBr: true},
	OpBGEU:    {name: "bgeu", format: FormatI, condBr: true},
	OpJAL:     {name: "jal", format: FormatJ, uncondBr: true, call: true},
	OpJALR:    {name: "jalr", format: FormatI, uncondBr: true, call: true},
	OpSYSCALL: {name: "syscall", format: FormatS},
}

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool { return op < numOpcodes }

// String returns the assembler mnemonic for op.
func (op Opcode) String() string {
	if !op.Valid() {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return opTable[op].name
}

// Format returns the encoding format of op.
func (op Opcode) Format() Format {
	if !op.Valid() {
		return FormatS
	}
	return opTable[op].format
}

// Memory-access flags of opFlags.
const (
	flagLoad uint8 = 1 << iota
	flagStore
	flagMem = flagLoad | flagStore
)

// opFlags holds every opcode's memory-access flags, indexed by the full
// uint8 range so the per-instruction predicates below are one load with
// no bounds check; invalid opcodes have no flags. It is derived from
// opTable at init, which stays the single source of truth.
var opFlags [256]uint8

func init() {
	for op, info := range opTable {
		if info.load {
			opFlags[op] |= flagLoad
		}
		if info.store {
			opFlags[op] |= flagStore
		}
	}
}

// IsLoad reports whether op reads data memory.
func (op Opcode) IsLoad() bool { return opFlags[op]&flagLoad != 0 }

// IsStore reports whether op writes data memory.
func (op Opcode) IsStore() bool { return opFlags[op]&flagStore != 0 }

// IsMem reports whether op accesses data memory.
func (op Opcode) IsMem() bool { return opFlags[op]&flagMem != 0 }

// IsCondBranch reports whether op is a conditional branch.
func (op Opcode) IsCondBranch() bool { return op.Valid() && opTable[op].condBr }

// IsUncondBranch reports whether op is an unconditional control transfer.
func (op Opcode) IsUncondBranch() bool { return op.Valid() && opTable[op].uncondBr }

// IsControl reports whether op can change the program counter (including a
// syscall, which traps to the kernel).
func (op Opcode) IsControl() bool {
	return op.IsCondBranch() || op.IsUncondBranch() || op == OpSYSCALL
}

// IsCall reports whether op writes a return address (jal/jalr with rd != r0
// behave as calls; this predicate is about the opcode's capability).
func (op Opcode) IsCall() bool { return op.Valid() && opTable[op].call }

// ZeroExtImm reports whether op's 16-bit immediate is zero-extended rather
// than sign-extended.
func (op Opcode) ZeroExtImm() bool { return op.Valid() && opTable[op].zeroExt }

// MemSize returns the size in bytes of the memory access performed by op,
// or 0 if op does not access memory.
func (op Opcode) MemSize() int {
	switch op {
	case OpLW, OpSW:
		return 4
	case OpLB, OpLBU, OpSB:
		return 1
	}
	return 0
}

// EndsBlock reports whether an instruction with opcode op terminates a
// basic block (any control transfer or trap).
func (op Opcode) EndsBlock() bool { return op.IsControl() }

// regMask returns a bitmask of registers in rs.
func regMask(rs ...uint8) uint32 {
	var m uint32
	for _, r := range rs {
		m |= 1 << (r & 31)
	}
	return m
}

// SrcRegs returns a bitmask (bit i set means register i) of the registers
// read by in.
func (in Inst) SrcRegs() uint32 {
	switch in.Op.Format() {
	case FormatR:
		return regMask(in.Rs1, in.Rs2)
	case FormatI:
		if in.Op == OpLUI {
			return 0
		}
		if in.Op.IsCondBranch() {
			return regMask(in.Rs1, in.Rs2)
		}
		if in.Op.IsStore() {
			return regMask(in.Rs1, in.Rd) // stores read the "rd" field as data
		}
		return regMask(in.Rs1)
	case FormatJ:
		return 0
	case FormatS:
		return regMask(RegSys, RegArg0, RegArg1, RegArg2, RegArg3)
	}
	return 0
}

// DstReg returns the register written by in, or -1 if none. The syscall
// instruction's kernel-written result register (r1) is reported here.
func (in Inst) DstReg() int {
	switch {
	case in.Op == OpSYSCALL:
		return RegSys
	case in.Op.IsCondBranch(), in.Op.IsStore():
		return -1
	default:
		if in.Rd == RegZero {
			return -1
		}
		return int(in.Rd)
	}
}
