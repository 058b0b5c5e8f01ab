package main

import (
	"bytes"
	"fmt"

	"superpin/internal/artifact"
	"superpin/internal/asm"
	"superpin/internal/core"
	"superpin/internal/kernel"
	"superpin/internal/obs"
	"superpin/internal/pin"
	"superpin/internal/tools"
	"superpin/internal/workload"
)

// execMode is the public entry point a workload drives.
type execMode int

const (
	modeNative execMode = iota // core.RunNative
	modePin                    // core.RunPin
	modeSP                     // core.Run
)

// toolKind is the instrumentation a workload attaches.
type toolKind int

const (
	toolNone           toolKind = iota // native runs
	toolNull                           // empty core.Tool: engine overhead alone
	toolIcount1                        // one analysis call per instruction
	toolIcount2                        // one analysis call per basic block
	toolIfcall                         // opaque If/Then watchpoint at every block head
	toolIfcallDeclared                 // same watchpoint, predicate shape declared (foldable)
)

// workloadDef is one named benchmark workload: a mode, a tool, and the
// list of catalog programs a round runs once each, sequentially.
type workloadDef struct {
	Name     string
	Mode     execMode
	Tool     toolKind
	Programs []string
	Scale    float64
	// Parallel runs SuperPin with Workers = nproc (otherwise 1).
	Parallel bool
	Why      string
}

// minRounds is the least number of timed rounds a run makes however
// short its -seconds: 40 keeps ten samples beyond the 75th percentile.
const minRounds = 40

var steady3 = []string{"gzip", "mcf", "mgrid"}

// workloads is the benchmark's vocabulary; BENCHMARK.json and the README
// list the same seven names. Scales are sized so a round takes 0.1–0.2 s
// on the 2-core reference host and a 10 s run holds at least 40 of them.
var workloads = []workloadDef{
	{Name: "native", Mode: modeNative, Tool: toolNone, Programs: steady3, Scale: 0.25,
		Why: "no engine: cpu interpreter, mem TLB/predecode and kernel quantum only; the master's speed and the control no pin/jit/sa/core change may move"},
	{Name: "pin-icount1", Mode: modePin, Tool: toolIcount1, Programs: steady3, Scale: 0.25,
		Why: "one analysis call per instruction: pin dispatch + call path and jit lookup/link dominate, hot tier bypassed (paper Fig. 3/4 tool)"},
	{Name: "pin-icount2", Mode: modePin, Tool: toolIcount2, Programs: steady3, Scale: 0.5,
		Why: "one call per block: most instructions retire in superblock runs, so hot tier, trace linking and the cached executor do the work (Fig. 5 tool)"},
	{Name: "pin-ifcall", Mode: modePin, Tool: toolIfcall, Programs: steady3, Scale: 0.5,
		Why: "If/Then predicate at every block head: liveness-masked save/restore, cross-call liveness and spill hoisting are live"},
	{Name: "sp-gcc", Mode: modeSP, Tool: toolIcount1, Programs: []string{"gcc"}, Scale: 0.25,
		Why: "every slice recompiles gcc's footprint on a cold engine: jit build/compile, core fork/boundary/signature/merge and mem COW dominate (serial pool)"},
	{Name: "sp-parallel", Mode: modeSP, Tool: toolIcount2, Programs: steady3, Scale: 0.125, Parallel: true,
		Why: "the only workload where the kernel worker pool, atomic COW and in-order merge run on more than one host thread"},
	{Name: "coldstart", Mode: modePin, Tool: toolIcount2,
		Programs: []string{"gcc", "vortex", "fma3d", "eon", "crafty", "perlbmk", "parser", "gap"}, Scale: 0.02,
		Why: "runs so short that load time is the run: sa.Analyze, predecode, first compiles, kernel boot; splits load-time cost from steady state"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// program is one generated guest image with its native reference.
type program struct {
	spec workload.Spec
	img  *asm.Program
	ref  *core.NativeResult
}

// timeFree reports whether p's architectural outcome is independent of
// virtual time. Programs that call time() fold the kernel's virtual
// milliseconds into their accumulator, so their exit code legitimately
// differs between native, Pin and SuperPin runs; for those only the
// instruction count and the tool's answer have a native reference, and
// the exit code is held to the first repetition of the same mode.
func (p *program) timeFree() bool {
	if p.spec.SyscallPeriod <= 0 {
		return true
	}
	for _, sysno := range p.spec.Syscalls {
		if sysno == kernel.SysTime {
			return false
		}
	}
	return true
}

// seededSpec returns the catalog program scaled for a workload. A
// non-zero seed renames the spec, which reseeds the generator's
// code-shape rng (it hashes the name) while keeping the calibrated
// parameters: same footprint, block size and syscall mix, different
// instructions.
func seededSpec(name string, scale float64, seed uint64) (workload.Spec, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return workload.Spec{}, fmt.Errorf("unknown catalog program %q", name)
	}
	spec = spec.Scaled(scale)
	if seed != 0 {
		spec.Name = fmt.Sprintf("%s.s%d", spec.Name, seed)
	}
	return spec, nil
}

// kernelConfig is the simulated machine of every run: the paper's 8-way
// hyperthreaded SMP with an explicit host worker count, so nothing is
// read from $SUPERPIN_WORKERS.
func kernelConfig(workers int) kernel.Config {
	cfg := kernel.DefaultConfig()
	cfg.MaxCycles = 200_000_000_000
	cfg.Workers = workers
	return cfg
}

// buildPrograms generates a workload's images (no reference run yet).
func buildPrograms(w workloadDef, seed uint64, scaleMul float64) ([]*program, error) {
	progs := make([]*program, 0, len(w.Programs))
	for _, name := range w.Programs {
		spec, err := seededSpec(name, w.Scale*scaleMul, seed)
		if err != nil {
			return nil, err
		}
		img, err := spec.Build()
		if err != nil {
			return nil, err
		}
		progs = append(progs, &program{spec: spec, img: img})
	}
	return progs, nil
}

// runReference makes p's native reference run, the oracle every later
// run of p is checked against.
func runReference(p *program) error {
	ref, err := core.RunNative(kernelConfig(1), p.img, p.spec.NativeMemCost)
	if err != nil {
		return fmt.Errorf("%s: native reference: %w", p.spec.Name, err)
	}
	p.ref = ref
	return nil
}

// runCfg is everything that distinguishes one run of a program from
// another. The zero switches are the workload's own configuration; the
// layer pass flips them for ablations.
type runCfg struct {
	Mode    execMode
	Tool    toolKind
	Workers int
	// Cost carries the public ablation switches (NoFastPath, NoSA,
	// SAIntra, NoHotTier); memory surcharges are filled per program.
	Cost pin.CostModel
	// Store, when non-nil, is the artifact store the run shares. The
	// end-to-end passes never set it.
	Store *artifact.Store
	// Metrics, when non-nil, collects the run's counters (count runs
	// only — timed runs pass none).
	Metrics *obs.Metrics
}

func (w workloadDef) runCfg(nproc int) runCfg {
	rc := runCfg{Mode: w.Mode, Tool: w.Tool, Workers: 1, Cost: pin.DefaultCost()}
	if w.Parallel {
		rc.Workers = nproc
	}
	return rc
}

// repeatsExactly reports whether w runs on one host worker, where every
// simulated quantity and count repeats bit for bit (see tally.sameAsFirst).
func (w workloadDef) repeatsExactly(o options) bool {
	return w.runCfg(o.workers).Workers == 1
}

// runOut is what one run reports. Exactly one of Pin/SP is set for an
// instrumented run.
type runOut struct {
	VTime  kernel.Cycles
	Exit   uint32
	Ins    uint64
	Stdout []byte
	Pin    *core.PinResult
	SP     *core.Result
	// toolCheck compares the tool's final answer with the reference.
	toolCheck func(ref *core.NativeResult) error
}

type nullTool struct{}

func (nullTool) Instrument(*pin.Trace) {}

// newTool returns a fresh tool of the given kind and the check of its
// final answer against the native reference.
func newTool(kind toolKind) (core.ToolFactory, func(ref *core.NativeResult) error) {
	switch kind {
	case toolIcount1, toolIcount2:
		ic := tools.NewIcount2(nil)
		if kind == toolIcount1 {
			ic = tools.NewIcount1(nil)
		}
		return ic.Factory(), func(ref *core.NativeResult) error {
			if ic.Total() != ref.Ins {
				return fmt.Errorf("icount total %d, native executed %d", ic.Total(), ref.Ins)
			}
			return nil
		}
	case toolIfcall, toolIfcallDeclared:
		wt := tools.NewWatchOpaque(nil, workload.DataReg, workload.DataBase)
		if kind == toolIfcallDeclared {
			wt = tools.NewWatch(nil, workload.DataReg, workload.DataBase)
		}
		// Registers start at zero, so the entry block — the one that
		// loads DataReg — is entered below the fence; the generator
		// never moves DataReg afterwards. Exactly one hit, on every
		// generated program.
		return wt.Factory(), func(*core.NativeResult) error {
			if wt.Hits() != 1 {
				return fmt.Errorf("watchpoint hits %d, want 1 (the entry block)", wt.Hits())
			}
			return nil
		}
	default:
		return func(*core.ToolCtl) core.Tool { return nullTool{} },
			func(*core.NativeResult) error { return nil }
	}
}

// invoke makes the one end-to-end call of a run: p under rc on a fresh
// kernel, memory, engine and tool, through the public entry point of
// rc.Mode.
func invoke(p *program, rc runCfg) (runOut, error) {
	var out runOut
	kcfg := kernelConfig(rc.Workers)
	kcfg.Metrics = rc.Metrics
	switch rc.Mode {
	case modeNative:
		res, err := core.RunNativeCached(kcfg, p.img, p.spec.NativeMemCost, 0, rc.Store)
		if err != nil {
			return out, fmt.Errorf("%s: native: %w", p.spec.Name, err)
		}
		out.VTime, out.Exit, out.Ins, out.Stdout = res.Time, res.ExitCode, res.Ins, res.Stdout
	case modePin:
		factory, check := newTool(rc.Tool)
		cost := rc.Cost
		cost.MemSurcharge = p.spec.PinMemCost
		res, err := core.RunPinCached(kcfg, p.img, factory, cost, 0, rc.Store)
		if err != nil {
			return out, fmt.Errorf("%s: pin: %w", p.spec.Name, err)
		}
		core.PublishPinMetrics(rc.Metrics, res)
		out.Pin, out.toolCheck = res, check
		out.VTime, out.Exit, out.Ins, out.Stdout = res.Time, res.ExitCode, res.Ins, res.Stdout
	case modeSP:
		factory, check := newTool(rc.Tool)
		opts := core.DefaultOptions()
		opts.SliceMSec = 500
		opts.MaxSlices = 8
		opts.PinCost = rc.Cost
		opts.PinCost.MemSurcharge = p.spec.SliceMemCost
		opts.NativeMemSurcharge = p.spec.NativeMemCost
		opts.Workers = rc.Workers
		opts.Artifacts = rc.Store
		opts.Metrics = rc.Metrics
		res, err := core.Run(kcfg, p.img, factory, opts)
		if err != nil {
			return out, fmt.Errorf("%s: superpin: %w", p.spec.Name, err)
		}
		out.SP, out.toolCheck = res, check
		out.VTime, out.Exit, out.Ins, out.Stdout = res.TotalTime, res.ExitCode, res.MasterIns, res.Stdout
	}
	return out, nil
}

// verify checks a run's outcome against p's native reference. A non-nil
// error is a failed run.
func verify(p *program, out runOut) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%s: %s", p.spec.Name, fmt.Sprintf(format, args...))
	}
	if sp := out.SP; sp != nil {
		if sp.Err != nil {
			return fail("superpin: %v", sp.Err)
		}
		if sp.MasterIns != sp.SliceIns {
			return fail("master executed %d instructions, slices %d", sp.MasterIns, sp.SliceIns)
		}
	}
	if out.Ins != p.ref.Ins {
		return fail("executed %d instructions, native reference %d", out.Ins, p.ref.Ins)
	}
	if p.timeFree() {
		if out.Exit != p.ref.ExitCode {
			return fail("exit code %d, native reference %d", out.Exit, p.ref.ExitCode)
		}
		if !bytes.Equal(out.Stdout, p.ref.Stdout) {
			return fail("stdout differs from the native reference (%d vs %d bytes)", len(out.Stdout), len(p.ref.Stdout))
		}
	}
	if out.toolCheck != nil {
		if err := out.toolCheck(p.ref); err != nil {
			return fail("%v", err)
		}
	}
	return nil
}

// execRun is invoke followed by verify.
func execRun(p *program, rc runCfg) (runOut, error) {
	out, err := invoke(p, rc)
	if err == nil {
		err = verify(p, out)
	}
	return out, err
}
