// Package kernel implements the deterministic discrete-event operating
// system and multiprocessor that the SuperPin reproduction runs on.
//
// The simulated machine stands in for the paper's 8-way hyperthreaded
// Xeon MP running Linux. It provides exactly the OS facilities SuperPin
// depends on:
//
//   - processes with copy-on-write fork (internal/mem)
//   - an N-CPU scheduler with optional hyperthreading and an SMP
//     memory-contention model
//   - ptrace-style syscall-stop hooks for the control process
//   - sleep/wake, interval timers, and per-process accounting
//   - a small deterministic syscall table (exit, write, read, brk, mmap,
//     munmap, time, getpid, rand, yield, spawn), including thread groups
//     with shared memory
//
// Time is virtual: the kernel advances a global cycle clock in fixed
// quanta, running each scheduled process's Runner for a budget of cycles
// scaled by the current contention factors. Run walks every quantum on
// the calling goroutine, so all results are bit-for-bit reproducible on
// any host.
package kernel

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"superpin/internal/cpu"
	"superpin/internal/isa"
	"superpin/internal/mem"
	"superpin/internal/obs"
)

// Config describes the simulated machine.
type Config struct {
	// CPUs is the number of physical cores (default 8).
	CPUs int
	// Hyperthreading doubles the number of schedulable contexts; two
	// processes sharing a core each run at Cost.HTFactor speed.
	Hyperthreading bool
	// Cost is the machine's cycle-cost model.
	Cost CostModel
	// Seed initializes the kernel's deterministic entropy pool (the
	// read-input stream and the rand syscall).
	Seed uint64
	// MaxCycles aborts the simulation if the clock passes it (0 = none).
	MaxCycles Cycles
	// Trace, when non-nil, receives structured events for every process
	// lifecycle transition, syscall stop and (coalesced) CPU-occupancy
	// interval. Nil — the default — costs one pointer check per site.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives live host-side telemetry: a
	// retired-instruction counter updated every quantum and a sampled
	// wall-clock histogram of quantum execution. Purely host-side
	// observation of the run in flight — virtual results are identical
	// with or without it. Nil — the default — costs one pointer check
	// per quantum.
	Metrics *obs.Metrics
	// Workers is ignored. It once sized a host goroutine pool that ran
	// the guest phases of one quantum concurrently; that pool bought
	// nothing measurable on top of the simulated SMP and let host thread
	// order leak into virtual results, so Run now walks every quantum on
	// the calling goroutine. The field remains only so existing callers
	// keep compiling.
	Workers int
}

// DefaultConfig returns the paper's evaluation machine: 8 physical cores
// with hyperthreading (16 contexts).
func DefaultConfig() Config {
	return Config{CPUs: 8, Hyperthreading: true, Cost: DefaultCost(), Seed: 1}
}

// Kernel is the simulated operating system instance.
type Kernel struct {
	cfg Config

	// ThreadRunner, when non-nil, builds the Runner for threads created
	// with the spawn syscall; by default the child reuses the parent's
	// Runner value. That is correct only for the stateless NativeRunner:
	// an engine holds one process's execution position, so every engine-
	// backed mode (serial Pin, native runs and the SuperPin master)
	// installs a factory that gives each thread its own.
	ThreadRunner func(parent *Proc) Runner

	// ThreadHook, when non-nil, observes every spawn-created thread.
	// SuperPin's control process uses it to notice that the traced
	// application became multithreaded.
	ThreadHook func(parent, child *Proc)

	// Now is the current virtual time.
	Now Cycles

	// Stdout accumulates bytes written to the console by guest processes.
	Stdout []byte

	procs     []*Proc
	runq      []*Proc
	timers    timerHeap
	nextPID   PID
	liveProcs int
	randState uint64
	guestErrs []error

	// running and spare are reused by every quantum walk (the scheduled
	// prefix of runq, and the array the rotated queue is built in), so
	// the walk allocates nothing per quantum.
	running, spare []*Proc

	// budgets[n-1] is the contention budget row used when n processes
	// run in a quantum (n = 1..Contexts()); built once by New from the
	// immutable config, so a quantum pays an index instead of a cost-model
	// copy and a float division.
	budgets []quantumBudget

	// cpuSlots holds the coalesced per-context occupancy state for the
	// tracer: one EvSchedule span is emitted per contiguous interval a
	// process occupies a context, not one per quantum.
	cpuSlots []cpuSlot

	// Live telemetry handles, pre-resolved from cfg.Metrics at New so
	// the per-quantum cost is a nil check, an atomic add, and (for the
	// sampled wall-time histogram) two clock reads every 16th quantum.
	// All nil when cfg.Metrics is nil.
	liveRetired     *obs.Counter // kernel.live.retired_ins
	quantumHist     *obs.Hist    // kernel.quantum_wall_ns, sampled
	qseq            uint64       // quanta since Run started (sampling phase)
	lastLiveRetired uint64       // retired-ins total at the last quantum
}

// quantumSampleMask samples every 16th quantum for the wall-time
// histogram: dense enough for stable p50/p99 over a run, sparse enough
// that the clock reads stay invisible next to a quantum's guest work.
const quantumSampleMask = 15

// cpuSlot is the current occupant of one CPU context (tracing only).
type cpuSlot struct {
	pid   PID
	name  string
	since Cycles
}

// emit records an instant event for p at the current virtual time.
func (k *Kernel) emit(kind obs.Kind, p *Proc, arg uint64, name string) {
	if k.cfg.Trace == nil {
		return
	}
	k.cfg.Trace.Emit(obs.Event{
		Kind: kind, Time: uint64(k.Now), PID: int32(p.PID), CPU: -1,
		Arg: arg, Name: name,
	})
}

// New creates a kernel for the given machine configuration.
func New(cfg Config) *Kernel {
	if cfg.CPUs <= 0 {
		cfg.CPUs = 8
	}
	if cfg.Cost.CPS == 0 {
		cfg.Cost = DefaultCost()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	k := &Kernel{cfg: cfg, nextPID: 1, randState: seed}
	k.budgets = contentionBudgets(&k.cfg, k.Contexts())
	if m := cfg.Metrics; m != nil {
		k.liveRetired = m.LiveCounter("kernel.live.retired_ins")
		k.quantumHist = m.Hist("kernel.quantum_wall_ns")
	}
	return k
}

// Config returns the kernel's configuration.
func (k *Kernel) Config() Config { return k.cfg }

// PageCopy returns the cost of one copy-on-write page copy, the argument
// runners pass to Proc.ChargeCow.
func (k *Kernel) PageCopy() Cycles { return k.cfg.Cost.PageCopy }

// Contexts returns the number of schedulable CPU contexts.
func (k *Kernel) Contexts() int {
	if k.cfg.Hyperthreading {
		return 2 * k.cfg.CPUs
	}
	return k.cfg.CPUs
}

// Procs returns all processes ever spawned, in PID order.
func (k *Kernel) Procs() []*Proc { return k.procs }

// Spawn creates a runnable process with the given memory image, initial
// registers and runner.
func (k *Kernel) Spawn(name string, m *mem.Memory, regs cpu.Regs, r Runner) *Proc {
	p := &Proc{
		PID:       k.nextPID,
		Name:      name,
		Regs:      regs,
		Mem:       m,
		Runner:    r,
		StartTime: k.Now,
		Brk:       0x0800_0000,
		MmapTop:   0x4000_0000,
	}
	k.nextPID++
	k.procs = append(k.procs, p)
	k.liveProcs++
	k.enqueue(p)
	k.emit(obs.EvProcSpawn, p, 0, name)
	return p
}

// Fork clones parent into a new process running r, with copy-on-write
// memory, charging the parent the fork and page-table costs. If runnable
// is false the child starts sleeping (SuperPin slices sleep until the
// following slice records its signature).
func (k *Kernel) Fork(parent *Proc, name string, r Runner, runnable bool) *Proc {
	cost := &k.cfg.Cost
	fc := cost.ForkBase + Cycles(parent.Mem.Pages())*cost.ForkPerPage
	parent.ForkCost += fc
	parent.debt += fc

	child := &Proc{
		PID:       k.nextPID,
		Name:      name,
		Regs:      parent.Regs,
		Mem:       parent.Mem.Fork(),
		Runner:    r,
		StartTime: k.Now,
		Brk:       parent.Brk,
		MmapTop:   parent.MmapTop,
	}
	k.nextPID++
	k.procs = append(k.procs, child)
	k.liveProcs++
	k.emit(obs.EvFork, child, uint64(parent.PID), name)
	if runnable {
		k.enqueue(child)
	} else {
		child.State = StateSleeping
		child.sleepSince = k.Now
		k.emit(obs.EvSleep, child, 0, "")
	}
	return child
}

// SpawnThread creates a thread in parent's group: a runnable process
// sharing parent's memory image, starting at entry with the given stack
// pointer and arg in r2. It backs the spawn system call.
func (k *Kernel) SpawnThread(parent *Proc, entry, sp, arg uint32) *Proc {
	var r Runner
	if k.ThreadRunner != nil {
		r = k.ThreadRunner(parent)
	} else {
		r = parent.Runner
	}
	if parent.share == nil {
		parent.share = &imageShare{live: 1, copyMark: parent.copyMark}
	}
	parent.share.live++

	var regs cpu.Regs
	regs.PC = entry &^ 3
	regs.R[isa.RegSP] = sp
	regs.R[isa.RegArg0] = arg

	child := &Proc{
		PID:       k.nextPID,
		Name:      fmt.Sprintf("%s.t%d", parent.Name, k.nextPID),
		Regs:      regs,
		Mem:       parent.Mem,
		Runner:    r,
		StartTime: k.Now,
		Brk:       parent.Brk,
		MmapTop:   parent.MmapTop,
		TGID:      parent.Group(),
		share:     parent.share,
		Hook:      parent.Hook,
	}
	k.nextPID++
	k.procs = append(k.procs, child)
	k.liveProcs++
	k.enqueue(child)
	k.emit(obs.EvProcSpawn, child, uint64(parent.PID), child.Name)
	if k.ThreadHook != nil {
		k.ThreadHook(parent, child)
	}
	return child
}

// Charge adds cy cycles of pending work debt to p, deducted from its
// future scheduling budgets. SuperPin uses it to bill host-level work
// performed on a process's behalf (signature recording, the spawn
// trampoline) to that process's virtual time.
func (k *Kernel) Charge(p *Proc, cy Cycles) { p.debt += cy }

// OnExit registers fn to run when p exits.
func (k *Kernel) OnExit(p *Proc, fn func(*Proc)) {
	p.exitFns = append(p.exitFns, fn)
}

// SleepProc moves a runnable process to the sleeping state. It takes
// effect immediately; if the process is mid-quantum its runner loop stops
// at the next stop point.
func (k *Kernel) SleepProc(p *Proc) {
	if p.State != StateRunnable {
		return
	}
	p.State = StateSleeping
	p.sleepSince = k.Now
	k.dequeue(p)
	k.emit(obs.EvSleep, p, 0, "")
}

// Wake makes a sleeping process runnable again.
func (k *Kernel) Wake(p *Proc) {
	if p.State != StateSleeping {
		return
	}
	p.SleepTime += k.Now - p.sleepSince
	p.State = StateRunnable
	k.enqueue(p)
	k.emit(obs.EvWake, p, 0, "")
}

// Exit terminates p with the given exit code. Like exit_group(2), it
// terminates every thread in p's group; the shared memory image is
// released when the last sharer exits.
func (k *Kernel) Exit(p *Proc, code uint32) {
	if p.State == StateExited {
		return
	}
	k.exitOne(p, code)
	group := p.Group()
	for _, q := range k.procs {
		if q != p && !q.Exited() && q.Group() == group {
			k.exitOne(q, code)
		}
	}
}

func (k *Kernel) exitOne(p *Proc, code uint32) {
	if p.State == StateSleeping {
		p.SleepTime += k.Now - p.sleepSince
		// Close the open sleep interval so exporters see balanced spans.
		k.emit(obs.EvWake, p, 0, "")
	}
	k.emit(obs.EvProcExit, p, uint64(code), "")
	p.State = StateExited
	p.ExitCode = code
	p.EndTime = k.Now
	if p.share == nil {
		p.Mem.Release()
	} else {
		p.share.live--
		if p.share.live == 0 {
			p.Mem.Release()
		}
	}
	k.dequeue(p)
	k.liveProcs--
	for _, fn := range p.exitFns {
		fn(p)
	}
}

func (k *Kernel) enqueue(p *Proc) {
	p.State = StateRunnable
	k.runq = append(k.runq, p)
}

func (k *Kernel) dequeue(p *Proc) {
	for i, q := range k.runq {
		if q == p {
			k.runq = append(k.runq[:i], k.runq[i+1:]...)
			return
		}
	}
}

// Timer is a pending one-shot timer.
type Timer struct {
	expiry    Cycles
	fn        func()
	cancelled bool
	index     int
}

// Cancel prevents the timer from firing if it has not fired yet.
func (t *Timer) Cancel() { t.cancelled = true }

type timerHeap []*Timer

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].expiry < h[j].expiry }
func (h timerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *timerHeap) Push(x any)        { t := x.(*Timer); t.index = len(*h); *h = append(*h, t) }
func (h *timerHeap) Pop() any          { old := *h; n := len(old); t := old[n-1]; *h = old[:n-1]; return t }

// AddTimer schedules fn to run at the first quantum boundary at least
// delay cycles in the future. Timer callbacks run at host level (they are
// the simulation's equivalent of SuperPin's timer process) and may fork,
// wake or sleep processes.
func (k *Kernel) AddTimer(delay Cycles, fn func()) *Timer {
	t := &Timer{expiry: k.Now + delay, fn: fn}
	heap.Push(&k.timers, t)
	return t
}

// ErrDeadlock is returned by Run when sleeping processes remain but
// nothing can ever wake them.
var ErrDeadlock = errors.New("kernel: deadlock: sleeping processes with no pending timers")

// ErrMaxCycles is returned when the configured cycle limit is exceeded.
var ErrMaxCycles = errors.New("kernel: MaxCycles exceeded")

// Run advances the simulation until every process has exited. Guest
// faults terminate the faulting process and are reported (joined) in the
// returned error; deadlock and the MaxCycles safety limit abort the run.
func (k *Kernel) Run() error {
	quantum := k.cfg.Cost.Quantum
	for k.liveProcs > 0 {
		if k.cfg.MaxCycles != 0 && k.Now > k.cfg.MaxCycles {
			return fmt.Errorf("%w at t=%d", ErrMaxCycles, k.Now)
		}
		k.fireTimers()
		if len(k.runq) == 0 {
			if k.liveProcs == 0 {
				break
			}
			next, ok := k.nextTimerExpiry()
			if !ok {
				return fmt.Errorf("%w (t=%d, %d live)", ErrDeadlock, k.Now, k.liveProcs)
			}
			if next > k.Now {
				k.Now = next
			} else {
				k.Now += quantum
			}
			continue
		}
		k.runQuantum()
		k.Now += quantum
	}
	k.fireTimers() // flush anything scheduled exactly at the end
	if k.cfg.Trace != nil {
		for i := range k.cpuSlots {
			k.flushCPUSlot(i)
			k.cpuSlots[i] = cpuSlot{}
		}
	}
	return errors.Join(k.guestErrs...)
}

func (k *Kernel) nextTimerExpiry() (Cycles, bool) {
	for len(k.timers) > 0 && k.timers[0].cancelled {
		heap.Pop(&k.timers)
	}
	if len(k.timers) == 0 {
		return 0, false
	}
	return k.timers[0].expiry, true
}

func (k *Kernel) fireTimers() {
	for len(k.timers) > 0 {
		t := k.timers[0]
		if t.cancelled {
			heap.Pop(&k.timers)
			continue
		}
		if t.expiry > k.Now {
			return
		}
		heap.Pop(&k.timers)
		t.fn()
	}
}

// runQuantum schedules one quantum and maintains the live telemetry:
// every 16th quantum's wall time feeds the kernel.quantum_wall_ns
// histogram, and the retired-instruction delta feeds the live counter
// /status derives guest-MIPS from. Telemetry off (cfg.Metrics nil)
// costs two nil checks.
func (k *Kernel) runQuantum() {
	k.qseq++
	if k.quantumHist != nil && k.qseq&quantumSampleMask == 0 {
		t0 := time.Now()
		k.runQuantumInner()
		k.quantumHist.Observe(uint64(time.Since(t0)))
	} else {
		k.runQuantumInner()
	}
	if k.liveRetired != nil {
		var total uint64
		for _, p := range k.procs {
			total += p.InsCount
		}
		k.liveRetired.Add(total - k.lastLiveRetired)
		k.lastLiveRetired = total
	}
}

// quantumBudget is one row of the contention budget table: the budgets
// of the processes scheduled in a quantum where n of them run.
type quantumBudget struct {
	plain      Cycles // budget of a process with a core to itself
	shared     Cycles // budget of a process sharing its core (HT)
	sharedFrom int    // index in the running list from which processes share
}

// contentionBudgets returns the budget table for 1..ctxs running
// processes. With R processes on P physical cores, every busy core
// suffers SMP memory contention; beyond P, pairs share cores via
// hyperthreading at HTFactor speed. The *last* 2(R-P) processes in
// queue order share, and the queue rotates each quantum, so sharing is
// spread fairly.
func contentionBudgets(cfg *Config, ctxs int) []quantumBudget {
	cost := &cfg.Cost
	p := cfg.CPUs
	quantum := cost.Quantum
	budgets := make([]quantumBudget, ctxs)
	for n := 1; n <= ctxs; n++ {
		busyCores := n
		if busyCores > p {
			busyCores = p
		}
		smp := 1.0 / (1.0 + cost.SMPAlpha*float64(busyCores-1))
		sharedFrom := n
		if n > p {
			sharedFrom = 2*p - n
		}
		ht := smp * cost.HTFactor
		budgets[n-1] = quantumBudget{
			plain:      max(Cycles(float64(quantum)*smp), 1),
			shared:     max(Cycles(float64(quantum)*ht), 1),
			sharedFrom: sharedFrom,
		}
	}
	return budgets
}

// runQuantumInner schedules up to Contexts() processes for one quantum.
func (k *Kernel) runQuantumInner() {
	n := min(len(k.runq), len(k.budgets))
	running := append(k.running[:0], k.runq[:n]...)
	k.running = running
	if k.cfg.Trace != nil {
		k.traceSchedule(running)
	}

	if n > 0 {
		row := &k.budgets[n-1]
		for i, proc := range running {
			budget := row.plain
			if i >= row.sharedFrom {
				budget = row.shared
			}
			k.runProc(proc, budget)
		}
	}
	quantum := k.cfg.Cost.Quantum

	// Charge wait time to runnable processes that did not get a context,
	// then rotate the queue (processes that ran move to the back) so
	// scheduling and HT pairing are fair. The run queue may have shrunk
	// or grown during the quantum (exits, forks, wakes), so work from the
	// current queue contents.
	next := k.spare[:0]
	for _, proc := range k.runq {
		if !slices.Contains(running, proc) {
			proc.WaitTime += quantum
			next = append(next, proc)
		}
	}
	for _, proc := range k.runq {
		if slices.Contains(running, proc) {
			next = append(next, proc)
		}
	}
	k.runq, k.spare = next, k.runq
}

// runProc gives p up to budget cycles of guest work, servicing syscalls
// exactly as they occur so no budget is lost to quantum rounding.
//
// Carried debt is paid first. Debt accrued mid-quantum (e.g. a fork
// performed while servicing a syscall) is deferred to the next quantum.
func (k *Kernel) runProc(p *Proc, budget Cycles) {
	if p.debt >= budget {
		p.debt -= budget
		p.CPUTime += budget
		return
	}
	budget -= p.debt
	p.CPUTime += p.debt
	p.debt = 0

	for budget > 0 && p.State == StateRunnable {
		insMark := p.InsCount
		used, stop := p.Runner.Run(k, p, budget)
		if p.BurstHook != nil && p.InsCount > insMark {
			p.BurstHook(p.InsCount - insMark)
		}
		if used > budget {
			p.debt += used - budget
			p.CPUTime += budget
			budget = 0
		} else {
			p.CPUTime += used
			budget -= used
		}
		switch stop {
		case StopBudget:
			return
		case StopSyscall:
			c := k.handleSyscall(p)
			if c > budget {
				p.debt += c - budget
				p.CPUTime += budget
				budget = 0
			} else {
				p.CPUTime += c
				budget -= c
			}
		case StopExit:
			k.Exit(p, p.ExitCode)
		case StopSleep:
			k.SleepProc(p)
		case StopError:
			k.guestErrs = append(k.guestErrs,
				fmt.Errorf("kernel: pid %d (%s) died: %w", p.PID, p.Name, p.Err))
			k.Exit(p, ^uint32(0))
		}
	}
}

// traceSchedule updates the coalesced per-context occupancy state: a
// span is flushed only when a context's occupant changes, so steady
// states (the common case: queue order is stable while procs fit the
// machine) cost no events per quantum.
func (k *Kernel) traceSchedule(running []*Proc) {
	if len(k.cpuSlots) < k.Contexts() {
		k.cpuSlots = make([]cpuSlot, k.Contexts())
	}
	for i := range k.cpuSlots {
		var pid PID
		var name string
		if i < len(running) {
			pid, name = running[i].PID, running[i].Name
		}
		if k.cpuSlots[i].pid == pid {
			continue
		}
		k.flushCPUSlot(i)
		k.cpuSlots[i] = cpuSlot{pid: pid, name: name, since: k.Now}
	}
}

// flushCPUSlot emits the pending occupancy span of context i, if any.
func (k *Kernel) flushCPUSlot(i int) {
	if k.cfg.Trace == nil {
		return
	}
	s := k.cpuSlots[i]
	if s.pid == 0 || k.Now <= s.since {
		return
	}
	k.cfg.Trace.Emit(obs.Event{
		Kind: obs.EvSchedule, Time: uint64(s.since),
		Dur: uint64(k.Now - s.since), PID: int32(s.pid), CPU: int32(i),
		Name: s.name,
	})
}

// handleSyscall services a trapped system call for p, including ptrace
// hook delivery, returning the cycle cost to charge.
func (k *Kernel) handleSyscall(p *Proc) Cycles {
	sysno, args := SyscallArgs(p)
	p.SyscallCount++
	k.emit(obs.EvSyscall, p, uint64(sysno), SyscallName(sysno))
	var total Cycles
	if p.Hook != nil {
		total += k.cfg.Cost.PtraceStop
		if handled, out := p.Hook.Entry(k, p, sysno, args); handled {
			ApplyOutcome(p, out)
			total += out.Cost
			if out.Exited {
				k.Exit(p, out.Ret)
			}
			return total
		}
	}
	out := k.serviceSyscall(p, sysno, args)
	ApplyOutcome(p, out)
	total += out.Cost
	if p.Hook != nil {
		p.Hook.Exit(k, p, sysno, args, out)
	}
	if out.Exited && p.State != StateExited {
		k.Exit(p, out.Ret)
	}
	return total
}

// PublishMetrics publishes the kernel's aggregate accounting into m
// under the "kernel." prefix. No-op when m is nil.
func (k *Kernel) PublishMetrics(m *obs.Metrics) {
	if m == nil {
		return
	}
	var ins, sys uint64
	for _, p := range k.procs {
		ins += p.InsCount
		sys += p.SyscallCount
	}
	m.Add("kernel.procs", uint64(len(k.procs)))
	m.Add("kernel.guest_ins", ins)
	m.Add("kernel.syscalls", sys)
	m.Add("kernel.stdout_bytes", uint64(len(k.Stdout)))
	m.Set("kernel.cycles", float64(k.Now))
}

// SortProcsByPID sorts a process slice by PID, for deterministic reports.
func SortProcsByPID(ps []*Proc) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].PID < ps[j].PID })
}
