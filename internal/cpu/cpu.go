// Package cpu implements the SVR32 architectural state and the base
// interpreter that executes one decoded instruction against a guest
// memory image.
//
// Everything that runs guest code — the uninstrumented master application
// (internal/kernel), the Pin-style JIT engine (internal/pin) and the
// SuperPin slices (internal/core) — funnels through Exec, so tool results
// are bit-identical across execution modes. That property underpins the
// repository's central correctness tests: an instruction count collected
// by parallel SuperPin slices must equal the count from a serial Pin run
// and from plain interpretation.
package cpu

import (
	"fmt"

	"superpin/internal/isa"
	"superpin/internal/mem"
)

// Regs is the SVR32 architectural register state.
type Regs struct {
	R  [isa.NumRegs]uint32
	PC uint32
}

// Event reports what happened while executing one instruction.
type Event uint8

// Events returned by Exec.
const (
	EvNone    Event = iota // instruction completed normally
	EvSyscall              // a SYSCALL trapped; PC points at the next instruction
)

// Error wraps a fault raised by instruction execution.
type Error struct {
	PC   uint32
	Inst isa.Inst
	Err  error
}

func (e *Error) Error() string {
	return fmt.Sprintf("cpu: at %#08x (%v): %v", e.PC, e.Inst, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Fetch decodes the instruction at r.PC through the memory image's
// per-page predecode cache: after the first execution from a page, a
// fetch is a software-TLB hit plus an array index instead of a page-map
// lookup, byte assembly and decode.
func Fetch(r *Regs, m *mem.Memory) (isa.Inst, error) {
	in, err := m.FetchInst(r.PC)
	if err != nil {
		return isa.Inst{}, &Error{PC: r.PC, Err: err}
	}
	return in, nil
}

// FetchUncached decodes the instruction at r.PC with a plain load-and-
// decode sequence, bypassing the predecode cache. It exists so
// differential tests and benchmarks can compare the cached fetch path
// against the definitionally-correct slow one.
func FetchUncached(r *Regs, m *mem.Memory) (isa.Inst, error) {
	w, f := m.LoadWord(r.PC)
	if f != nil {
		return isa.Inst{}, &Error{PC: r.PC, Err: f}
	}
	in, err := isa.Decode(w)
	if err != nil {
		return isa.Inst{}, &Error{PC: r.PC, Err: err}
	}
	return in, nil
}

// EffAddr returns the effective data address of a memory instruction given
// the current register state. It is exposed for instrumentation arguments
// (IARG-style memory-address operands).
func EffAddr(r *Regs, in isa.Inst) uint32 {
	return r.R[in.Rs1] + uint32(in.Imm)
}

// BranchTarget returns the taken-target of a conditional branch or jal at
// pc. For jalr the target is register-dependent; use EffAddr semantics in
// Exec instead.
func BranchTarget(pc uint32, in isa.Inst) uint32 {
	return pc + isa.WordSize + uint32(in.Imm)*isa.WordSize
}

// Exec executes the decoded instruction in at r.PC, updating registers,
// memory and the PC. On EvSyscall the kernel must complete the system
// call; the PC already points past the syscall instruction.
func Exec(r *Regs, m *mem.Memory, in isa.Inst) (Event, error) {
	pc := r.PC
	next := pc + isa.WordSize
	rs1 := r.R[in.Rs1]
	rs2 := r.R[in.Rs2]

	switch in.Op {
	case isa.OpADD:
		r.R[in.Rd] = rs1 + rs2
	case isa.OpSUB:
		r.R[in.Rd] = rs1 - rs2
	case isa.OpMUL:
		r.R[in.Rd] = rs1 * rs2
	case isa.OpDIV:
		if rs2 == 0 {
			r.R[in.Rd] = ^uint32(0)
		} else if int32(rs1) == -1<<31 && int32(rs2) == -1 {
			r.R[in.Rd] = rs1 // overflow case: quotient = dividend
		} else {
			r.R[in.Rd] = uint32(int32(rs1) / int32(rs2))
		}
	case isa.OpREM:
		if rs2 == 0 {
			r.R[in.Rd] = rs1
		} else if int32(rs1) == -1<<31 && int32(rs2) == -1 {
			r.R[in.Rd] = 0
		} else {
			r.R[in.Rd] = uint32(int32(rs1) % int32(rs2))
		}
	case isa.OpAND:
		r.R[in.Rd] = rs1 & rs2
	case isa.OpOR:
		r.R[in.Rd] = rs1 | rs2
	case isa.OpXOR:
		r.R[in.Rd] = rs1 ^ rs2
	case isa.OpSLL:
		r.R[in.Rd] = rs1 << (rs2 & 31)
	case isa.OpSRL:
		r.R[in.Rd] = rs1 >> (rs2 & 31)
	case isa.OpSRA:
		r.R[in.Rd] = uint32(int32(rs1) >> (rs2 & 31))
	case isa.OpSLT:
		r.R[in.Rd] = b2u(int32(rs1) < int32(rs2))
	case isa.OpSLTU:
		r.R[in.Rd] = b2u(rs1 < rs2)

	case isa.OpADDI:
		r.R[in.Rd] = rs1 + uint32(in.Imm)
	case isa.OpANDI:
		r.R[in.Rd] = rs1 & uint32(in.Imm)
	case isa.OpORI:
		r.R[in.Rd] = rs1 | uint32(in.Imm)
	case isa.OpXORI:
		r.R[in.Rd] = rs1 ^ uint32(in.Imm)
	case isa.OpSLLI:
		r.R[in.Rd] = rs1 << (uint32(in.Imm) & 31)
	case isa.OpSRLI:
		r.R[in.Rd] = rs1 >> (uint32(in.Imm) & 31)
	case isa.OpSRAI:
		r.R[in.Rd] = uint32(int32(rs1) >> (uint32(in.Imm) & 31))
	case isa.OpSLTI:
		r.R[in.Rd] = b2u(int32(rs1) < in.Imm)
	case isa.OpSLTIU:
		r.R[in.Rd] = b2u(rs1 < uint32(in.Imm))
	case isa.OpLUI:
		r.R[in.Rd] = uint32(in.Imm) << 16

	case isa.OpLW:
		v, f := m.LoadWord(rs1 + uint32(in.Imm))
		if f != nil {
			return EvNone, &Error{PC: pc, Inst: in, Err: f}
		}
		r.R[in.Rd] = v
	case isa.OpLB:
		v, f := m.LoadByte(rs1 + uint32(in.Imm))
		if f != nil {
			return EvNone, &Error{PC: pc, Inst: in, Err: f}
		}
		r.R[in.Rd] = uint32(int32(int8(v)))
	case isa.OpLBU:
		v, f := m.LoadByte(rs1 + uint32(in.Imm))
		if f != nil {
			return EvNone, &Error{PC: pc, Inst: in, Err: f}
		}
		r.R[in.Rd] = uint32(v)
	case isa.OpSW:
		if f := m.StoreWord(rs1+uint32(in.Imm), r.R[in.Rd]); f != nil {
			return EvNone, &Error{PC: pc, Inst: in, Err: f}
		}
	case isa.OpSB:
		if f := m.StoreByte(rs1+uint32(in.Imm), byte(r.R[in.Rd])); f != nil {
			return EvNone, &Error{PC: pc, Inst: in, Err: f}
		}

	case isa.OpBEQ:
		if rs1 == rs2 {
			next = BranchTarget(pc, in)
		}
	case isa.OpBNE:
		if rs1 != rs2 {
			next = BranchTarget(pc, in)
		}
	case isa.OpBLT:
		if int32(rs1) < int32(rs2) {
			next = BranchTarget(pc, in)
		}
	case isa.OpBGE:
		if int32(rs1) >= int32(rs2) {
			next = BranchTarget(pc, in)
		}
	case isa.OpBLTU:
		if rs1 < rs2 {
			next = BranchTarget(pc, in)
		}
	case isa.OpBGEU:
		if rs1 >= rs2 {
			next = BranchTarget(pc, in)
		}

	case isa.OpJAL:
		r.R[in.Rd] = next
		next = BranchTarget(pc, in)
	case isa.OpJALR:
		target := (rs1 + uint32(in.Imm)) &^ 3
		r.R[in.Rd] = next
		next = target

	case isa.OpSYSCALL:
		r.R[isa.RegZero] = 0
		r.PC = next
		return EvSyscall, nil

	default:
		return EvNone, &Error{PC: pc, Inst: in, Err: fmt.Errorf("unimplemented opcode %v", in.Op)}
	}

	r.R[isa.RegZero] = 0
	r.PC = next
	return EvNone, nil
}

// Step fetches and executes one instruction at r.PC. It is the
// interpreter of kernel.NativeRunner, the single-instruction reference
// the Pin engine and its batched executors (ExecBlock and kin) are
// tested against, and of SuperPin's signature replay. Native runs and
// the master execute on the Pin engine.
func Step(r *Regs, m *mem.Memory) (Event, isa.Inst, error) {
	in, err := m.FetchInst(r.PC)
	if err != nil {
		return EvNone, isa.Inst{}, &Error{PC: r.PC, Err: err}
	}
	ev, err := Exec(r, m, in)
	return ev, in, err
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
