package cpu

import (
	"math/bits"

	"superpin/internal/isa"
	"superpin/internal/mem"
)

// ExecBlockCached is ExecBlock on a host-local register file: the guest
// registers are copied into a stack-allocated Regs once per run, the run
// executes against that local copy through ExecBlock's loop, and on the
// way out only the registers in wb — the run's written-register set —
// are written back, plus the PC. Registers the run cannot write are
// never touched in r, and registers it can write hold their reference
// values in the local file whether or not the run completed, so a
// masked writeback leaves r exactly as ExecBlock would have.
//
// No engine calls it: the Pin engine executes superblocks through
// ExecBlock and ExecBlockProf only. It stays because the repository
// benchmark (benchmark/layers.go, cpu.execblockcached_mips) times it
// against ExecBlock. The stop conditions, counting rules and fault
// semantics are identical to ExecBlock (see there); the two executors
// are differentially tested against each other over random programs.
//
// wb must be the run's written-register mask with bit 0 set (writing r0
// back is harmless — it is zero in both copies). A full mask writes the
// whole register file back.
func ExecBlockCached(r *Regs, m *mem.Memory, block []BlockIns, max int, cowStart uint64, wb uint32) (n int, ev Event, err error) {
	if max < len(block) {
		block = block[:max]
	}
	l := *r
	n, ev, err = execLoop(&l, m, block, cowStart)
	writeBack(r, &l, wb)
	return n, ev, err
}

// execLoop runs block against the register file l: the architectural
// file for ExecBlock, a host-local copy for ExecBlockCached. The
// frequent opcodes (ALU, immediates, LW/SW, conditional branches, and
// the JAL/JALR that terminate most superblock runs, byte memory ops) are
// inlined — each case mirrors the corresponding Exec case exactly — and
// everything else (SYSCALL, undecodable) falls back to Exec on l, so the
// architectural outcome is the reference interpreter's by construction.
func execLoop(l *Regs, m *mem.Memory, block []BlockIns, cowStart uint64) (int, Event, error) {
	for i := range block {
		in := block[i].Inst
		pc := l.PC
		rs1 := l.R[in.Rs1]
		rs2 := l.R[in.Rs2]
		next := pc + isa.WordSize

		switch in.Op {
		case isa.OpADD:
			l.R[in.Rd] = rs1 + rs2
		case isa.OpSUB:
			l.R[in.Rd] = rs1 - rs2
		case isa.OpMUL:
			l.R[in.Rd] = rs1 * rs2
		case isa.OpAND:
			l.R[in.Rd] = rs1 & rs2
		case isa.OpOR:
			l.R[in.Rd] = rs1 | rs2
		case isa.OpXOR:
			l.R[in.Rd] = rs1 ^ rs2
		case isa.OpSLL:
			l.R[in.Rd] = rs1 << (rs2 & 31)
		case isa.OpSRL:
			l.R[in.Rd] = rs1 >> (rs2 & 31)
		case isa.OpSRA:
			l.R[in.Rd] = uint32(int32(rs1) >> (rs2 & 31))
		case isa.OpSLT:
			l.R[in.Rd] = b2u(int32(rs1) < int32(rs2))
		case isa.OpSLTU:
			l.R[in.Rd] = b2u(rs1 < rs2)
		case isa.OpDIV:
			if rs2 == 0 {
				l.R[in.Rd] = ^uint32(0)
			} else if int32(rs1) == -1<<31 && int32(rs2) == -1 {
				l.R[in.Rd] = rs1
			} else {
				l.R[in.Rd] = uint32(int32(rs1) / int32(rs2))
			}
		case isa.OpREM:
			if rs2 == 0 {
				l.R[in.Rd] = rs1
			} else if int32(rs1) == -1<<31 && int32(rs2) == -1 {
				l.R[in.Rd] = 0
			} else {
				l.R[in.Rd] = uint32(int32(rs1) % int32(rs2))
			}

		case isa.OpADDI:
			l.R[in.Rd] = rs1 + uint32(in.Imm)
		case isa.OpANDI:
			l.R[in.Rd] = rs1 & uint32(in.Imm)
		case isa.OpORI:
			l.R[in.Rd] = rs1 | uint32(in.Imm)
		case isa.OpXORI:
			l.R[in.Rd] = rs1 ^ uint32(in.Imm)
		case isa.OpSLLI:
			l.R[in.Rd] = rs1 << (uint32(in.Imm) & 31)
		case isa.OpSRLI:
			l.R[in.Rd] = rs1 >> (uint32(in.Imm) & 31)
		case isa.OpSRAI:
			l.R[in.Rd] = uint32(int32(rs1) >> (uint32(in.Imm) & 31))
		case isa.OpSLTI:
			l.R[in.Rd] = b2u(int32(rs1) < in.Imm)
		case isa.OpSLTIU:
			l.R[in.Rd] = b2u(rs1 < uint32(in.Imm))
		case isa.OpLUI:
			l.R[in.Rd] = uint32(in.Imm) << 16

		case isa.OpLW:
			v, f := m.LoadWord(rs1 + uint32(in.Imm))
			if f != nil {
				return i, EvNone, &Error{PC: pc, Inst: in, Err: f}
			}
			l.R[in.Rd] = v
		case isa.OpLB:
			v, f := m.LoadByte(rs1 + uint32(in.Imm))
			if f != nil {
				return i, EvNone, &Error{PC: pc, Inst: in, Err: f}
			}
			l.R[in.Rd] = uint32(int32(int8(v)))
		case isa.OpLBU:
			v, f := m.LoadByte(rs1 + uint32(in.Imm))
			if f != nil {
				return i, EvNone, &Error{PC: pc, Inst: in, Err: f}
			}
			l.R[in.Rd] = uint32(v)
		case isa.OpSW:
			if f := m.StoreWord(rs1+uint32(in.Imm), l.R[in.Rd]); f != nil {
				return i, EvNone, &Error{PC: pc, Inst: in, Err: f}
			}
		case isa.OpSB:
			if f := m.StoreByte(rs1+uint32(in.Imm), byte(l.R[in.Rd])); f != nil {
				return i, EvNone, &Error{PC: pc, Inst: in, Err: f}
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
			l.R[in.Rd] = next
			next = BranchTarget(pc, in)
		case isa.OpJALR:
			target := (rs1 + uint32(in.Imm)) &^ 3
			l.R[in.Rd] = next
			next = target

		default:
			ev, err := Exec(l, m, in)
			if err != nil {
				return i, EvNone, err
			}
			if ev != EvNone || l.PC != block[i].Next || m.CopyEvents != cowStart {
				return i + 1, ev, nil
			}
			continue
		}

		l.R[isa.RegZero] = 0
		l.PC = next
		if next != block[i].Next || m.CopyEvents != cowStart {
			return i + 1, EvNone, nil
		}
	}
	return len(block), EvNone, nil
}

// writeBack copies the registers selected by wb (and always the PC) from
// the local file back into the architectural state.
func writeBack(dst, src *Regs, wb uint32) {
	if wb == ^uint32(0) {
		*dst = *src
		return
	}
	for m := wb; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		dst.R[i] = src.R[i]
	}
	dst.PC = src.PC
}
