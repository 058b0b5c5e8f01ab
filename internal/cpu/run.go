package cpu

import (
	"superpin/internal/isa"
	"superpin/internal/mem"
	"superpin/internal/prof"
)

// RunBudget is the budgeted batch loop of uninstrumented execution: it
// fetches through the memory image's predecode cache and executes through
// Exec, charging interp cycles per instruction plus memCost for each
// memory instruction, until one of the following occurs:
//
//   - used reaches budget (the final instruction may overshoot it);
//   - maxIns instructions completed;
//   - the instruction raised an event (ev != EvNone) — counted;
//   - m.CopyEvents differs from cowStart (a copy-on-write fault, or one
//     still uncharged when the loop was entered) — counted, so the caller
//     can charge the copy at the exact instruction that triggered it;
//   - the fetch or the instruction faulted (err != nil) — NOT counted and
//     NOT charged, with the PC left at the faulting instruction.
//
// These are ExecBlock's counting rules. A non-nil pr observes every
// completed instruction, at the same retirement point as the other
// executors. The native runner (the uninstrumented master and native
// baseline runs) drives all of its execution through this one loop.
func RunBudget(r *Regs, m *mem.Memory, budget, interp, memCost uint64, maxIns int, cowStart uint64, pr *prof.Probe) (n int, used uint64, ev Event, err error) {
	for used < budget && n < maxIns {
		pc := r.PC
		in, ferr := m.FetchInst(pc)
		if ferr != nil {
			return n, used, EvNone, &Error{PC: pc, Err: ferr}
		}
		if ev, err = Exec(r, m, in); err != nil {
			return n, used, EvNone, err
		}
		used += interp
		if in.Op.IsMem() {
			used += memCost
		}
		n++
		if pr != nil {
			pr.OnExec(in, pc+isa.WordSize, r.PC)
		}
		if ev != EvNone || m.CopyEvents != cowStart {
			return n, used, ev, nil
		}
	}
	return n, used, EvNone, nil
}
