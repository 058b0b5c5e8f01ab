package cpu

import (
	"superpin/internal/isa"
	"superpin/internal/mem"
	"superpin/internal/prof"
)

// BlockIns is one predecoded instruction in a straight-line block: the
// decoded instruction plus the address execution reaches when it falls
// through (its own address + 4). The executor compares the post-Exec PC
// against Next to detect taken branches without re-deriving addresses.
type BlockIns struct {
	Inst isa.Inst
	Next uint32
}

// ExecBlock executes up to max instructions of block, a predecoded
// straight-line run whose first instruction is at r.PC. It is the
// batched inner loop of the Pin engine's superblock fast path: the
// common opcodes are inlined into the loop (no per-instruction Exec
// call), and no per-instruction cost accounting happens here, so the
// caller charges the run's cycles, instruction counts and copy-on-write
// costs once from the returned count.
//
// Execution stops, returning the number of instructions that completed,
// when any of the following occurs:
//
//   - max instructions completed;
//   - the PC diverged from the fall-through address (a taken branch or
//     jump) — the diverging instruction is counted, matching the
//     reference loop, which finishes an instruction before checking
//     where it went;
//   - the instruction raised an event (ev != EvNone) — counted;
//   - m.CopyEvents advanced past cowStart (a copy-on-write fault, or a
//     store into code an engine translated) — counted, so the caller
//     can charge the copy, or drop the stale translation, at the exact
//     instruction that triggered it;
//   - the instruction faulted (err != nil) — NOT counted, and the PC is
//     left at the faulting instruction, exactly like Exec.
func ExecBlock(r *Regs, m *mem.Memory, block []BlockIns, max int, cowStart uint64) (n int, ev Event, err error) {
	if max < len(block) {
		block = block[:max]
	}
	return execLoop(r, m, block, cowStart)
}

// ExecBlockProf is ExecBlock with a profiler probe observing every
// completed instruction. It exists as a separate loop (rather than a nil
// check inside ExecBlock) so the unprofiled fast path stays branch-free,
// and so profiled fast-path runs retire instructions through exactly the
// same per-instruction observation point as the reference loop — the
// sample stream is identical with the fast paths on or off because both
// paths drive the probe once per retired instruction, in order.
func ExecBlockProf(r *Regs, m *mem.Memory, block []BlockIns, max int, cowStart uint64, pr *prof.Probe) (n int, ev Event, err error) {
	if max < len(block) {
		block = block[:max]
	}
	for i := range block {
		ev, err = Exec(r, m, block[i].Inst)
		if err != nil {
			return i, EvNone, err
		}
		pr.OnExec(block[i].Inst, block[i].Next, r.PC)
		if ev != EvNone || r.PC != block[i].Next || m.CopyEvents != cowStart {
			return i + 1, ev, nil
		}
	}
	return len(block), EvNone, nil
}
