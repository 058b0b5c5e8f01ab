package core

import (
	"superpin/internal/artifact"
	"superpin/internal/asm"
	"superpin/internal/cpu"
	"superpin/internal/isa"
	"superpin/internal/jit"
	"superpin/internal/kernel"
	"superpin/internal/mem"
	"superpin/internal/pin"
	"superpin/internal/prof"
)

// NativeResult is the outcome of an uninstrumented baseline run.
type NativeResult struct {
	Time     kernel.Cycles
	Ins      uint64
	Syscalls uint64
	ExitCode uint32
	Stdout   []byte
	// Profile is the run's guest profile (nil unless requested via
	// RunNativeProf).
	Profile *prof.Profile
}

// nativeRunner returns the Runner of one uninstrumented process (a
// native baseline run, the SuperPin master, or one of their threads): a
// Pin engine with no tool under the native charge profile, interp being
// the kernel's InterpCost. It is a variable only so the package's tests
// can substitute kernel.NativeRunner, the cpu.Step reference, and check
// that the engine is indistinguishable from it.
var nativeRunner = func(interp, memSurcharge kernel.Cycles) kernel.Runner {
	return pin.NewEngine(pin.NativeCost(interp, memSurcharge))
}

// RunNative executes program natively (no instrumentation, no monitoring)
// on a fresh kernel — the "native" bar of the paper's figures.
func RunNative(cfg kernel.Config, program *asm.Program, memSurcharge kernel.Cycles) (*NativeResult, error) {
	return RunNativeProf(cfg, program, memSurcharge, 0)
}

// RunNativeProf is RunNative with the virtual-time profiler attached when
// profInterval is positive (0 disables profiling). The profiler charges
// no cycles, so the result's timings are identical either way.
func RunNativeProf(cfg kernel.Config, program *asm.Program, memSurcharge kernel.Cycles, profInterval uint64) (*NativeResult, error) {
	return RunNativeCached(cfg, program, memSurcharge, profInterval, nil)
}

// RunNativeCached is RunNativeProf sharing predecoded pages through an
// artifact store (nil runs uncached) — the dominant per-run decode cost
// for short executions.
func RunNativeCached(cfg kernel.Config, program *asm.Program, memSurcharge kernel.Cycles, profInterval uint64, store *artifact.Store) (*NativeResult, error) {
	k := kernel.New(cfg)
	m := mem.New()
	program.LoadInto(m)
	if store != nil {
		m.AdoptPredecode(store.Predecode(artifact.KeyOf(program), program))
	}
	regs := cpu.Regs{PC: program.Entry}
	regs.R[isa.RegSP] = DefaultStackTop
	interp := cfg.Cost.InterpCost
	// Each thread gets its own engine: an engine holds one process's
	// execution position.
	k.ThreadRunner = func(*kernel.Proc) kernel.Runner { return nativeRunner(interp, memSurcharge) }
	p := k.Spawn("native", m, regs, nativeRunner(interp, memSurcharge))
	var probe *prof.Probe
	if profInterval > 0 {
		probe = prof.NewProbe(profInterval)
		p.Prof = probe
	}
	if err := k.Run(); err != nil {
		return nil, err
	}
	res := &NativeResult{
		Time:     p.EndTime - p.StartTime,
		ExitCode: p.ExitCode,
		Stdout:   k.Stdout,
	}
	// Multithreaded applications: account the whole thread group.
	for _, q := range k.Procs() {
		if q.Group() == p.Group() {
			res.Ins += q.InsCount
			res.Syscalls += q.SyscallCount
			if q.EndTime > p.StartTime && q.EndTime-p.StartTime > res.Time {
				res.Time = q.EndTime - p.StartTime
			}
		}
	}
	if probe != nil {
		res.Profile = &prof.Profile{Interval: profInterval, TotalIns: res.Ins, Samples: probe.Samples()}
	}
	return res, nil
}

// PinResult is the outcome of a traditional serial Pin run.
type PinResult struct {
	Time     kernel.Cycles
	Ins      uint64
	ExitCode uint32
	Engine   pin.Stats
	Cache    jit.CacheStats
	Stdout   []byte
	// Profile is the run's guest profile (nil unless requested via
	// RunPinProf).
	Profile *prof.Profile
}

// RunPin executes program serially under the instrumentation engine with
// the given tool — traditional Pin mode, the paper's baseline. The tool
// factory receives a ToolCtl outside SuperPin mode (SuperPin() reports
// false, CreateSharedArea returns the local data), so the same tool code
// runs unchanged, exactly as in the paper's Figure 2 example.
func RunPin(cfg kernel.Config, program *asm.Program, factory ToolFactory, cost pin.CostModel) (*PinResult, error) {
	return RunPinProf(cfg, program, factory, cost, 0)
}

// RunPinProf is RunPin with the virtual-time profiler attached when
// profInterval is positive (0 disables profiling). The probe rides on
// the leader process only, so multithreaded guests should not be
// profiled this way; the profiler charges no cycles, so the result's
// timings are identical either way.
func RunPinProf(cfg kernel.Config, program *asm.Program, factory ToolFactory, cost pin.CostModel, profInterval uint64) (*PinResult, error) {
	return RunPinCached(cfg, program, factory, cost, profInterval, nil)
}

// RunPinCached is RunPinProf sharing predecoded pages through an
// artifact store (nil runs uncached): they adopt onto the fresh image
// instead of being decoded again. Host-side only: results are
// byte-identical either way.
func RunPinCached(cfg kernel.Config, program *asm.Program, factory ToolFactory, cost pin.CostModel, profInterval uint64, store *artifact.Store) (*PinResult, error) {
	k := kernel.New(cfg)
	m := mem.New()
	program.LoadInto(m)
	if store != nil {
		m.AdoptPredecode(store.Predecode(artifact.KeyOf(program), program))
	}
	regs := cpu.Regs{PC: program.Entry}
	regs.R[isa.RegSP] = DefaultStackTop

	e := pin.NewEngine(cost)
	ctl := &ToolCtl{sliceNum: -1} // EndSlice is a no-op outside SuperPin
	tool := factory(ctl)
	e.AddTraceInstrumenter(tool.Instrument)

	// Threads each get their own engine (their own code cache and
	// execution state), all instrumented by the same tool instance —
	// like real Pin, where the Pintool is process-wide.
	k.ThreadRunner = func(*kernel.Proc) kernel.Runner {
		te := pin.NewEngine(cost)
		te.AddTraceInstrumenter(tool.Instrument)
		return te
	}

	p := k.Spawn("pin", m, regs, e)
	var probe *prof.Probe
	if profInterval > 0 {
		probe = prof.NewProbe(profInterval)
		p.Prof = probe
	}
	if cfg.Trace != nil {
		e.AttachObs(cfg.Trace, int32(p.PID))
	}
	if cfg.Metrics != nil {
		e.AttachMetrics(cfg.Metrics)
		store.AttachMetrics(cfg.Metrics)
	}
	if err := k.Run(); err != nil {
		return nil, err
	}
	if fin, ok := tool.(Finisher); ok {
		fin.Fini(p.ExitCode)
	}
	res := &PinResult{
		Time:     p.EndTime - p.StartTime,
		ExitCode: p.ExitCode,
		Engine:   e.Stats(),
		Cache:    e.CacheStats(),
		Stdout:   k.Stdout,
	}
	for _, q := range k.Procs() {
		if q.Group() == p.Group() {
			res.Ins += q.InsCount
			if q.EndTime > p.StartTime && q.EndTime-p.StartTime > res.Time {
				res.Time = q.EndTime - p.StartTime
			}
		}
	}
	if probe != nil {
		res.Profile = &prof.Profile{Interval: profInterval, TotalIns: res.Ins, Samples: probe.Samples()}
	}
	return res, nil
}
