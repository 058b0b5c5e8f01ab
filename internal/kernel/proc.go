package kernel

import (
	"fmt"

	"superpin/internal/cpu"
	"superpin/internal/isa"
	"superpin/internal/mem"
	"superpin/internal/prof"
)

// PID identifies a simulated process.
type PID int

// State is a process's scheduling state.
type State uint8

// Process states.
const (
	StateRunnable State = iota // eligible for a CPU
	StateSleeping              // waiting for an explicit Wake
	StateExited                // finished; resources released
)

func (s State) String() string {
	switch s {
	case StateRunnable:
		return "runnable"
	case StateSleeping:
		return "sleeping"
	case StateExited:
		return "exited"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// StopReason reports why a Runner returned control to the kernel.
type StopReason uint8

// Stop reasons.
const (
	StopBudget  StopReason = iota // cycle budget exhausted; more work remains
	StopSyscall                   // guest executed SYSCALL; kernel must service it
	StopExit                      // runner finished voluntarily (e.g. slice completed)
	StopSleep                     // runner asks the kernel to put the process to sleep
	StopError                     // guest execution failed; see Proc.Err
)

// Runner advances a process's guest execution. The Pin JIT engine
// (internal/pin) runs every execution mode: instrumented for serial Pin
// runs and SuperPin slices (which service system calls via
// record-and-playback and therefore rarely return StopSyscall), and with
// no tool under a native charge profile (pin.NativeCost) for native
// baseline runs and the uninstrumented master. NativeRunner, one
// cpu.Step per instruction, is the reference they are tested against
// and the master of the IP-history detector.
type Runner interface {
	// Run executes up to budget cycles of guest work for p, returning the
	// cycles actually consumed and the reason it stopped. used may exceed
	// budget by at most the cost of the final instruction.
	Run(k *Kernel, p *Proc, budget Cycles) (used Cycles, stop StopReason)
}

// SyscallHook observes and optionally overrides a traced process's system
// calls, modeling ptrace(PTRACE_SYSCALL). Entry is called after the trap
// but before the kernel services the call; Exit is called with the
// completed outcome. SuperPin's control process lives behind this hook.
type SyscallHook interface {
	// Entry may service the syscall itself by returning handled=true and
	// an outcome to apply; otherwise the kernel's syscall table runs.
	Entry(k *Kernel, p *Proc, sysno uint32, args [4]uint32) (handled bool, out SyscallOutcome)
	// Exit observes the outcome of a kernel-serviced syscall (after its
	// register and memory effects have been applied to p).
	Exit(k *Kernel, p *Proc, sysno uint32, args [4]uint32, out SyscallOutcome)
}

// Proc is a simulated process.
type Proc struct {
	PID  PID
	Name string

	Regs cpu.Regs
	Mem  *mem.Memory

	State    State
	Runner   Runner
	ExitCode uint32
	Err      error // set when the process died on a guest fault

	// Hook, when non-nil, receives ptrace-style syscall stops.
	Hook SyscallHook

	// BurstHook, when non-nil, is called with the number of instructions
	// the process executed each time its runner returns control to the
	// kernel. Because the discrete-event kernel serializes execution
	// within a quantum, the global sequence of these bursts is exactly
	// the memory-visible interleaving of a thread group — the schedule
	// log SuperPin's deterministic thread replay records.
	BurstHook func(ins uint64)

	// Aux carries subsystem-private state (e.g. SuperPin's per-slice
	// bookkeeping) without the kernel knowing its type.
	Aux any

	// Prof, when non-nil, observes every instruction this process
	// retires (virtual-time PC sampling and shadow-stack maintenance).
	// The probe charges no cycles: attaching it changes nothing the
	// guest or the scheduler can see. Not inherited by Fork or
	// SpawnThread — each profiled process gets its own probe.
	Prof *prof.Probe

	// Brk and MmapTop are the address-space bookkeeping for the brk and
	// mmap system calls. They are inherited across Fork.
	Brk     uint32
	MmapTop uint32

	// TGID identifies the thread group leader for threads created with
	// SysSpawn (zero for a group leader or single-threaded process).
	// exit() terminates the whole group, and group members share their
	// memory image.
	TGID PID

	// share is the thread group's state for the image its members share
	// (nil for a sole owner).
	share *imageShare

	// Accounting, all in cycles of virtual time.
	StartTime Cycles // kernel time at spawn
	EndTime   Cycles // kernel time at exit
	CPUTime   Cycles // guest work performed
	ForkCost  Cycles // fork + page-table + trampoline costs paid by this proc
	CowCost   Cycles // copy-on-write page-copy costs paid by this proc
	WaitTime  Cycles // time spent runnable but off-CPU
	SleepTime Cycles // time spent in StateSleeping

	// SyscallCount counts syscalls serviced (by the kernel or by a hook).
	SyscallCount uint64
	// InsCount counts guest instructions executed by this process across
	// all runners (interpreted or instrumented).
	InsCount uint64

	debt       Cycles // syscall/fault cost carried into the next quantum
	sleepSince Cycles
	exitFns    []func(*Proc)
	cowMark    uint64 // last-seen Mem.CopyEvents, for CowPending
	copyMark   uint64 // Mem.Copies already charged, while Mem is not shared
}

// imageShare is what the threads of a group keep once for the memory
// image they share: how many are alive (the image is released when the
// last one exits) and how many of its copy-on-write copies have been
// charged. One copy is one page copy whichever thread's store made it,
// so it is charged once, to the thread that settles it first.
type imageShare struct {
	live     int
	copyMark uint64
}

// Exited reports whether p has terminated.
func (p *Proc) Exited() bool { return p.State == StateExited }

// Group returns p's thread-group id (its own PID for a leader).
func (p *Proc) Group() PID {
	if p.TGID != 0 {
		return p.TGID
	}
	return p.PID
}

// CowPending reports whether Mem holds events (mem.Memory.CopyEvents:
// copy-on-write copies and stores into translated code) that ChargeCow
// has not yet seen, such as ones a kernel syscall writing guest memory
// caused. The Pin engine's batched fast path falls back to
// per-instruction execution while one is pending, so a copy's charge
// lands at the same instruction as it does in the reference loop.
func (p *Proc) CowPending() bool { return p.Mem.CopyEvents != p.cowMark }

// ChargeCow charges any copy-on-write page copies performed since the
// last call at pageCopy cycles each (CostModel.PageCopy, see
// Kernel.PageCopy), returning the cycles charged, and marks every
// pending event seen. Threads sharing an image share the mark, so each
// copy is charged to one of them. Every Runner implementation (native and
// instrumented) calls it after each instruction or batch that may have
// copied a page; the batch loops stop at the copying instruction, so the
// charge lands there.
func (p *Proc) ChargeCow(pageCopy Cycles) Cycles {
	if p.Mem.CopyEvents == p.cowMark {
		return 0
	}
	p.cowMark = p.Mem.CopyEvents
	mark := &p.copyMark
	if p.share != nil {
		mark = &p.share.copyMark
	}
	delta := p.Mem.Copies - *mark
	*mark = p.Mem.Copies
	cy := Cycles(delta) * pageCopy
	p.CowCost += cy
	return cy
}

// NativeRunner interprets guest code one instruction at a time through
// cpu.Step, with no instrumentation, settling every charge after every
// instruction. It is the reference the engine-based native runner is
// tested against, and the master's runner under SuperPin's rejected
// IP-history detector, whose branch-trace ring needs every instruction
// pointer. The zero value is a valid Runner.
type NativeRunner struct {
	// MemSurcharge is an extra cost per memory instruction, modeling a
	// benchmark's cache behavior (memory-bound applications pay more per
	// access). Set per benchmark by internal/workload; zero by default.
	MemSurcharge Cycles

	// Ring, when non-nil, records every executed instruction pointer
	// (single-step/branch-trace monitoring), charging RingCost per
	// instruction.
	Ring     *IPRing
	RingCost Cycles
}

// Run implements Runner.
func (r NativeRunner) Run(k *Kernel, p *Proc, budget Cycles) (Cycles, StopReason) {
	var used Cycles
	cost := &k.cfg.Cost
	for used < budget {
		pc := p.Regs.PC
		ev, in, err := cpu.Step(&p.Regs, p.Mem)
		if err != nil {
			p.Err = err
			return used, StopError
		}
		used += cost.InterpCost
		if in.Op.IsMem() {
			used += r.MemSurcharge
		}
		if r.Ring != nil {
			r.Ring.Push(pc)
			used += r.RingCost
		}
		used += p.ChargeCow(cost.PageCopy)
		p.InsCount++
		if p.Prof != nil {
			p.Prof.OnExec(in, pc+isa.WordSize, p.Regs.PC)
		}
		if ev == cpu.EvSyscall {
			return used, StopSyscall
		}
	}
	return used, StopBudget
}
