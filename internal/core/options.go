// Package core implements SuperPin — the paper's contribution: running an
// application uninstrumented at full speed while forking non-overlapping
// instrumented timeslices of it that execute in parallel on idle
// processors, then merging their results in slice order.
//
// The package orchestrates, on top of the simulated kernel
// (internal/kernel) and the Pin-workalike engine (internal/pin):
//
//   - the control process: a ptrace syscall-stop hook on the master that
//     either records a system call's effects for playback in the slices
//     or forces a new timeslice (paper Section 4.2)
//   - the timer process: timeout-driven slice spawning through a
//     trampoline when no syscall boundary occurs (Section 4.3)
//   - slice spawning by copy-on-write fork, with the code-cache memory
//     bubble reservation (Section 4.1)
//   - signature recording and detection: architectural registers plus the
//     top 100 stack words, with a two-hot-register inlined quick check
//     (Section 4.4), plus the paper's proposed memory-operand extension
//   - in-order result merging with shared areas and auto-merge
//     (Section 4.5), and the SP_* tool API (Section 5)
//
// Use Run (or the RunNative / RunPin baselines) with a ToolFactory.
package core

import (
	"fmt"
	"math"

	"superpin/internal/artifact"
	"superpin/internal/kernel"
	"superpin/internal/obs"
	"superpin/internal/pin"
)

// DetectorKind selects the slice-boundary detection mechanism.
type DetectorKind uint8

const (
	// DetectorState is the paper's shipped mechanism (Section 4.4): the
	// architectural-register + top-of-stack signature with a
	// two-register inlined quick check.
	DetectorState DetectorKind = iota
	// DetectorIPHistory is the alternative the paper examined and
	// rejected: match the last IPHistoryLen executed instruction
	// pointers. It requires monitoring every instruction in both the
	// master (branch tracing) and the slices (ring maintenance), which
	// is exactly the overhead that made the paper choose the state
	// signature; the ablation harness quantifies the difference.
	DetectorIPHistory
)

// Options mirrors SuperPin's command-line switches plus the reproduction's
// extension knobs.
type Options struct {
	// Detector selects the boundary detection mechanism (default: the
	// paper's state signature).
	Detector DetectorKind

	// IPHistoryLen is the DetectorIPHistory window length (the paper's
	// discussion mentions 1000; default 256).
	IPHistoryLen int

	// SliceMSec is the timeslice interval in virtual milliseconds
	// (-spmsec, default 1000).
	SliceMSec float64

	// MaxSlices is the maximum number of simultaneously running slices
	// (-spmp, default 8). Slices that are asleep waiting for their end
	// signature do not count; the master stalls rather than exceed this.
	MaxSlices int

	// MaxSysRecs is the maximum number of system-call records per slice,
	// 0 to disable recording entirely (-spsysrecs, default 1000). When a
	// slice's record budget is exhausted — or recording is disabled —
	// every system call forces a new timeslice.
	MaxSysRecs int

	// StackWords is the size of the signature's top-of-stack window in
	// words (paper: 100).
	StackWords int

	// RegPickIns bounds the recording-mode scan (in instructions) used to
	// pick the two registers most likely to change (paper: "a specified
	// block count").
	RegPickIns int

	// AlwaysFullCheck disables the Section 4.4 two-register inlined quick
	// check and runs the full architectural comparison at every arrival
	// at the boundary PC. It exists for the ablation study quantifying
	// what the quick check saves; production runs leave it false.
	AlwaysFullCheck bool

	// MemCheck enables the paper's Section 4.4 proposed enhancement:
	// when no register discriminates loop iterations, include the result
	// of a memory operation in the signature, eliminating the known
	// false-positive case.
	MemCheck bool

	// BubblePages is the size of the anonymous memory bubble reserved at
	// startup as a placeholder for slice code-cache allocations
	// (Section 4.1), in pages.
	BubblePages int

	// Threads enables the Section 8 future-work multithreading support
	// via deterministic schedule replay: the control process records the
	// master thread group's interleaving as a burst log, and slices
	// replay each thread's context for exactly the recorded instruction
	// counts (see internal/core/threads.go). Off by default; without it
	// SuperPin aborts when the application spawns a thread, matching the
	// shipped system. Threaded runs should use instruction-granularity
	// tools (block-granularity counting can double-count block fragments
	// at context switches).
	Threads bool

	// SharedCodeCache enables the Section 8 future-work shared code
	// cache: slices share one translation cache, paying only the
	// instrumentation-weaving cost (plus a per-dispatch consistency
	// check) for code another slice already translated. This directly
	// attacks the compilation-slowdown overhead (Section 6.3 item 2).
	SharedCodeCache bool

	// ExpectedAppMSec, when positive, enables the Section 8 future-work
	// adaptive throttle: the timeslice interval shrinks as the
	// application approaches its expected end, reducing pipeline delay.
	ExpectedAppMSec float64

	// MinSliceMSec floors the adaptive throttle (default SliceMSec/8).
	MinSliceMSec float64

	// Workers is ignored. Slices run in parallel in virtual time, on the
	// simulated SMP (kernel.Config.CPUs); a host goroutine pool that once
	// also ran them concurrently on the host measured no faster than one
	// goroutine, so the kernel runs every quantum on the calling
	// goroutine. The field remains only so existing callers keep
	// compiling.
	Workers int

	// ProfInterval, when positive, attaches the virtual-time guest
	// profiler (internal/prof): the master maintains a shadow call
	// stack, each slice samples PC + stack every ProfInterval retired
	// instructions over its own range, and the merged stream (exposed as
	// Result.Profile) is byte-identical to a serial run's. Profiling
	// charges no virtual cycles. Incompatible with Threads: the probe
	// follows one instruction stream, and a thread group has several.
	ProfInterval uint64

	// PinCost is the cost model for the slices' instrumentation engines.
	PinCost pin.CostModel

	// NativeMemSurcharge is the per-memory-instruction cost of the
	// uninstrumented application (per-benchmark cache behavior).
	NativeMemSurcharge kernel.Cycles

	// Trace, when non-nil, receives the run's structured event stream
	// (slice lifecycle, signature checks, and — propagated into the
	// kernel configuration — process and scheduling events). Nil, the
	// default, costs a pointer check per emission site.
	Trace *obs.Tracer

	// Metrics, when non-nil, receives the run's statistics (core, pin
	// engine, code cache, kernel aggregates) at the end of Run.
	Metrics *obs.Metrics

	// Artifacts, when non-nil, is the content-addressed artifact store
	// (internal/artifact) the run shares with other executions: the
	// image's predecoded pages are fetched through it (computed at most
	// once per image per process) and adopted by the master, whose
	// slices inherit them through the copy-on-write fork. Purely a
	// host-side accelerator: results are byte-identical with or without
	// a store, warm or cold (`spbench -exp diff`'s warm and disk-warm
	// arms).
	Artifacts *artifact.Store
}

// DefaultOptions returns the paper's default switch settings.
func DefaultOptions() Options {
	return Options{
		SliceMSec:   1000,
		MaxSlices:   8,
		MaxSysRecs:  1000,
		StackWords:  100,
		RegPickIns:  512,
		BubblePages: 256,
		PinCost:     pin.DefaultCost(),
	}
}

// normalize validates o and fills derived defaults. It rejects a float
// option that is not finite, and a negative value of any option whose
// zero means "default" or "off"; the error names the field.
func (o *Options) normalize() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SliceMSec", o.SliceMSec}, {"ExpectedAppMSec", o.ExpectedAppMSec}, {"MinSliceMSec", o.MinSliceMSec},
		{"MaxSysRecs", float64(o.MaxSysRecs)}, {"StackWords", float64(o.StackWords)},
		{"RegPickIns", float64(o.RegPickIns)}, {"BubblePages", float64(o.BubblePages)},
		{"IPHistoryLen", float64(o.IPHistoryLen)},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("core: %s must be finite and non-negative, got %v", f.name, f.v)
		}
	}
	if o.SliceMSec == 0 {
		return fmt.Errorf("core: SliceMSec must be positive, got %v", o.SliceMSec)
	}
	if o.MaxSlices < 1 {
		return fmt.Errorf("core: MaxSlices must be at least 1, got %d", o.MaxSlices)
	}
	if o.ProfInterval > 0 && o.Threads {
		return fmt.Errorf("core: ProfInterval is incompatible with Threads (the profiler follows a single instruction stream)")
	}
	if o.StackWords == 0 {
		o.StackWords = 100
	}
	if o.RegPickIns == 0 {
		o.RegPickIns = 512
	}
	if o.BubblePages == 0 {
		o.BubblePages = 256
	}
	if o.IPHistoryLen == 0 {
		o.IPHistoryLen = 256
	}
	if o.MinSliceMSec == 0 {
		o.MinSliceMSec = o.SliceMSec / 8
	}
	if o.PinCost == (pin.CostModel{}) {
		o.PinCost = pin.DefaultCost()
	}
	return nil
}
