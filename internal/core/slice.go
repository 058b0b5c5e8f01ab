package core

import (
	"fmt"
	"time"

	"superpin/internal/isa"
	"superpin/internal/kernel"
	"superpin/internal/obs"
	"superpin/internal/pin"
	"superpin/internal/prof"
)

// boundaryKind describes how a timeslice ends.
type boundaryKind uint8

const (
	// boundaryOpen: the following slice has not been forked yet; the
	// slice sleeps until its end boundary is known.
	boundaryOpen boundaryKind = iota
	// boundarySyscall: the slice ends after replaying its final recorded
	// system call (the fork happened at a syscall the control process
	// chose not to record).
	boundarySyscall
	// boundaryTimeout: the slice ends at an arbitrary location identified
	// by signature detection (the fork was timer-driven).
	boundaryTimeout
	// boundaryExit: the slice ends after replaying the application's
	// exit system call.
	boundaryExit
)

func (b boundaryKind) String() string {
	switch b {
	case boundaryOpen:
		return "open"
	case boundarySyscall:
		return "syscall"
	case boundaryTimeout:
		return "timeout"
	case boundaryExit:
		return "exit"
	default:
		return fmt.Sprintf("boundary(%d)", uint8(b))
	}
}

// sysRecord is one recorded system call: what the master executed and the
// complete outcome to play back in the slice (paper Section 4.2). Tid
// identifies the issuing thread for multithreaded replay.
type sysRecord struct {
	Sysno uint32
	Args  [4]uint32
	Out   kernel.SyscallOutcome
	Tid   kernel.PID
}

// playbackCost is the cycle cost of replaying one recorded system call in
// a slice (register/memory patching without entering the kernel).
const playbackCost kernel.Cycles = 10

// slice is one instrumented timeslice: a forked process running the
// application under a fresh Pin engine and tool instance, from its fork
// point to the next slice's start.
type slice struct {
	num  int
	proc *kernel.Proc
	eng  *pin.Engine
	tool Tool
	ctl  *ToolCtl

	startSig *Signature
	endSig   *Signature // the NEXT slice's start signature
	boundary boundaryKind

	// probe is the slice's profiler probe (Options.ProfInterval), seeded
	// from the master's shadow stack at the fork point.
	probe *prof.Probe

	records []sysRecord
	nextRec int

	// bursts is the schedule log bounding this slice in threaded mode.
	bursts []burst

	// hostStart is the host wall-clock at fork, feeding the
	// "core.slice_wall_ns" telemetry histogram; zero when no metrics
	// registry is attached (the fork path then never reads the clock).
	hostStart time.Time

	running     bool
	done        bool
	endDetected bool
	err         error

	// ipRing is the slice's rolling instruction-pointer history, and
	// lastPushed caches its newest entry for the inlined quick check;
	// both are used only under DetectorIPHistory.
	ipRing     *kernel.IPRing
	lastPushed uint32
}

// playbackFilter returns the slice engine's syscall filter: every system
// call the slice re-executes is satisfied from the master's records
// instead of entering the kernel, so slices observe exactly the values
// the master did (time, pids, input data) and never duplicate effects
// (console output). Reaching the final record of a syscall- or
// exit-bounded slice terminates the slice.
func (sl *slice) playbackFilter(e *Engine) pin.SyscallFilter {
	return func(k *kernel.Kernel, p *kernel.Proc) (bool, kernel.Cycles, kernel.StopReason) {
		sysno, args := kernel.SyscallArgs(p)
		if sl.nextRec >= len(sl.records) {
			sl.err = fmt.Errorf("core: slice %d diverged: unexpected %s at %#08x past %d records (boundary %v)",
				sl.num, kernel.SyscallName(sysno), p.Regs.PC-4, len(sl.records), sl.boundary)
			e.stats.Divergences++
			return true, 0, kernel.StopExit
		}
		rec := sl.records[sl.nextRec]
		if sysno != rec.Sysno || args != rec.Args {
			sl.err = fmt.Errorf("core: slice %d diverged: replayed %s(%v) but master recorded %s(%v)",
				sl.num, kernel.SyscallName(sysno), args, kernel.SyscallName(rec.Sysno), rec.Args)
			e.stats.Divergences++
			return true, 0, kernel.StopExit
		}
		sl.nextRec++
		kernel.ApplyOutcome(p, rec.Out)
		p.SyscallCount++
		if sl.nextRec == len(sl.records) &&
			(sl.boundary == boundarySyscall || sl.boundary == boundaryExit) {
			// The final record is a syscall- or exit-bounded slice's end
			// boundary: replaying it is the detection event.
			e.emit(obs.EvSliceDetect, sl.proc.PID, uint64(sl.num), 0, "")
			return true, playbackCost, kernel.StopExit
		}
		return true, playbackCost, kernel.StopBudget
	}
}

// detectionInstrumenter returns the trace-instrumentation pass that weaves
// the end-signature check into the slice's compiled code (paper Section
// 4.4): an inlined two-register quick check (InsertIfCall) guarding the
// full register + stack comparison (InsertThenCall), attached only at the
// boundary PC. Slices bounded by a syscall need no detection and insert
// nothing. Compilation happens only after the slice wakes, by which time
// its end signature is known.
func (sl *slice) detectionInstrumenter(e *Engine) func(*pin.Trace) {
	// The checks read sl.endSig when they run, so one pair of closures
	// serves every trace the slice compiles.
	fullCheck := func(c *pin.Ctx) {
		e.stats.FullChecks++
		match, stackChecked := sl.endSig.fullMatch(c.Regs, c.Mem)
		if stackChecked {
			e.stats.StackChecks++
		}
		if match {
			sl.endDetected = true
			e.emit(obs.EvSigFullCheck, sl.proc.PID, uint64(sl.num), 1, "")
			e.emit(obs.EvSliceDetect, sl.proc.PID, uint64(sl.num), 0, "")
			c.RequestStop()
		} else {
			e.stats.FalseQuickMatches++
			e.emit(obs.EvSigFullCheck, sl.proc.PID, uint64(sl.num), 0, "")
		}
	}
	quickCheck := func(c *pin.Ctx) bool {
		e.stats.QuickChecks++
		return sl.endSig.quickMatch(c.Regs)
	}
	return func(tr *pin.Trace) {
		if sl.boundary != boundaryTimeout || sl.endSig == nil {
			return
		}
		pc := sl.endSig.PC
		for _, bbl := range tr.Bbls() {
			// i wraps past NumIns when pc precedes the block.
			i := (pc - bbl.Addr()) / isa.WordSize
			if pc%isa.WordSize != 0 || i >= uint32(bbl.NumIns()) {
				continue
			}
			ins := bbl.Ins()[i]
			if e.opts.AlwaysFullCheck {
				// Ablation mode: pay a full analysis call with the
				// complete comparison on every arrival.
				ins.InsertCall(pin.Before, fullCheck)
				continue
			}
			ins.InsertIfCall(pin.Before, quickCheck)
			ins.InsertThenCall(pin.Before, fullCheck)
		}
	}
}

// ipHistoryInstrumenter returns the trace-instrumentation pass for the
// rejected-alternative detector: every instruction gets an inlined
// after-stub pushing its address into the slice's IP ring (the
// per-instruction cost that motivated the paper's choice), and the
// boundary PC gets a before-check comparing the ring against the recorded
// history.
func (sl *slice) ipHistoryInstrumenter(e *Engine) func(*pin.Trace) {
	return func(tr *pin.Trace) {
		if sl.ipRing == nil {
			return
		}
		detect := sl.boundary == boundaryTimeout && sl.endSig != nil && sl.endSig.IPs != nil
		for _, bbl := range tr.Bbls() {
			for _, ins := range bbl.Ins() {
				if detect && ins.Addr() == sl.endSig.PC {
					sig := sl.endSig
					wantLast := uint32(0)
					if n := len(sig.IPs); n > 0 {
						wantLast = sig.IPs[n-1]
					}
					last := wantLast
					ins.InsertIfCall(pin.Before, func(c *pin.Ctx) bool {
						e.stats.QuickChecks++
						return sl.lastPushed == last
					})
					ins.InsertThenCall(pin.Before, func(c *pin.Ctx) {
						e.stats.FullChecks++
						if sl.ipRing.MatchesSnapshot(sig.IPs) {
							sl.endDetected = true
							e.emit(obs.EvSigFullCheck, sl.proc.PID, uint64(sl.num), 1, "")
							e.emit(obs.EvSliceDetect, sl.proc.PID, uint64(sl.num), 0, "")
							c.RequestStop()
						} else {
							e.stats.FalseQuickMatches++
							e.emit(obs.EvSigFullCheck, sl.proc.PID, uint64(sl.num), 0, "")
						}
					})
				}
				pc := ins.Addr()
				ins.InsertIfCall(pin.After, func(*pin.Ctx) bool {
					sl.ipRing.Push(pc)
					sl.lastPushed = pc
					return false
				})
			}
		}
	}
}

// SliceInfo is the per-slice summary exposed in Result.
type SliceInfo struct {
	Num      int
	Boundary string
	Ins      uint64
	Records  int
	Start    kernel.Cycles // fork time
	Woke     kernel.Cycles // when the slice began detection-mode execution
	End      kernel.Cycles // completion (merge eligibility) time
	CPUTime  kernel.Cycles
}

func (sl *slice) info() SliceInfo {
	return SliceInfo{
		Num:      sl.num,
		Boundary: sl.boundary.String(),
		Ins:      sl.proc.InsCount,
		Records:  len(sl.records),
		Start:    sl.proc.StartTime,
		Woke:     sl.proc.StartTime + sl.proc.SleepTime,
		End:      sl.proc.EndTime,
		CPUTime:  sl.proc.CPUTime,
	}
}
