package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"superpin/internal/asm"
	"superpin/internal/cpu"
	"superpin/internal/isa"
	"superpin/internal/kernel"
	"superpin/internal/mem"
	"superpin/internal/obs"
	"superpin/internal/prof"
	"superpin/internal/workload"
)

// stepRunner is the reference native runner: the per-instruction
// cpu.Step loop kernel.NativeRunner ran before it batched through
// cpu.RunBudget. Every charge is settled after every instruction, so it
// is the accounting the batched runner must reproduce exactly.
type stepRunner struct{ kernel.NativeRunner }

func (r stepRunner) Run(k *kernel.Kernel, p *kernel.Proc, budget kernel.Cycles) (kernel.Cycles, kernel.StopReason) {
	var used kernel.Cycles
	cost := k.Config().Cost
	pr := p.Prof
	for used < budget {
		pc := p.Regs.PC
		ev, in, err := cpu.Step(&p.Regs, p.Mem)
		if err != nil {
			p.Err = err
			return used, kernel.StopError
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
		if pr != nil {
			pr.OnExec(in, pc+isa.WordSize, p.Regs.PC)
		}
		if ev == cpu.EvSyscall {
			return used, kernel.StopSyscall
		}
	}
	return used, kernel.StopBudget
}

// bothRunners calls run once with core's native runner swapped for the
// step reference and once with the batched runner, returning both
// results (reference first).
func bothRunners[T any](t *testing.T, run func() T) (ref, got T) {
	t.Helper()
	func() {
		saved := nativeRunner
		defer func() { nativeRunner = saved }()
		nativeRunner = func(r kernel.NativeRunner) kernel.Runner { return stepRunner{r} }
		ref = run()
	}()
	return ref, run()
}

// procAcct is the per-process state a native runner is responsible for.
type procAcct struct {
	Name                    string
	Regs                    cpu.Regs
	CPUTime, CowCost        kernel.Cycles
	EndTime                 kernel.Cycles
	InsCount, SyscallCount  uint64
	ExitCode                uint32
	Err                     string
	RingIPs                 []uint32
	ProfSamples             []prof.Sample
	ProfPos                 uint64
	ProfStack               []prof.Frame
	ProfMaxDepth            int
	ExitedState, Stdout     string
	ForkCost, WaitTime, Now kernel.Cycles
}

func acctOf(k *kernel.Kernel, p *kernel.Proc, ring *kernel.IPRing) procAcct {
	a := procAcct{
		Name: p.Name, Regs: p.Regs,
		CPUTime: p.CPUTime, CowCost: p.CowCost, EndTime: p.EndTime,
		InsCount: p.InsCount, SyscallCount: p.SyscallCount, ExitCode: p.ExitCode,
		ExitedState: fmt.Sprint(p.State), Stdout: string(k.Stdout),
		ForkCost: p.ForkCost, WaitTime: p.WaitTime, Now: k.Now,
	}
	if p.Err != nil {
		a.Err = p.Err.Error()
	}
	if ring != nil {
		a.RingIPs = ring.Snapshot()
	}
	if pr := p.Prof; pr != nil {
		a.ProfSamples, a.ProfPos, a.ProfStack, a.ProfMaxDepth = pr.Samples(), pr.Pos(), pr.Stack(), pr.MaxDepth()
	}
	return a
}

// nativeVariant selects what a NativeRunner under test carries.
type nativeVariant struct {
	name      string
	surcharge kernel.Cycles
	ring      bool // IP-history ring (the maxIns = 1 path)
	prof      bool // profiler probe on every process
}

var nativeVariants = []nativeVariant{
	{name: "plain"},
	{name: "surcharge3", surcharge: 3},
	{name: "surcharge50", surcharge: 50},
	{name: "ring", surcharge: 3, ring: true},
	{name: "prof", surcharge: 3, prof: true},
}

// edgeCase is a hand-written program plus optional setup (for example a
// fork after pre-touching pages) run under both runners.
type edgeCase struct {
	name  string
	src   string
	setup func(k *kernel.Kernel, p *kernel.Proc, r kernel.Runner)
	// want checks that the scheduled reference run exercised the case.
	want func(a []procAcct) bool
}

// pretouchAndFork writes n data pages at 0x200000 in the parent and forks
// a runnable child sharing them, so the first guest store to each page
// is a copy-on-write copy (charged to whichever process stores first).
func pretouchAndFork(n uint32) func(k *kernel.Kernel, p *kernel.Proc, r kernel.Runner) {
	return func(k *kernel.Kernel, p *kernel.Proc, r kernel.Runner) {
		for i := uint32(0); i < n; i++ {
			p.Mem.StoreWord(0x0020_0000+i*mem.PageSize, i)
		}
		k.Fork(p, "child", r, true)
	}
}

func nativeEdgeCases(t *testing.T) []edgeCase {
	patch, err := isa.Encode(isa.Inst{Op: isa.OpADDI, Rd: 7, Imm: 99})
	if err != nil {
		t.Fatal(err)
	}
	return []edgeCase{
		{name: "cow-fork-pair", src: `
	li r10, 0
	li r11, 8
	li r12, 0x00200000
loop:
	lw r13, (r12)
	add r13, r13, r10
	sw r13, (r12)
	sw r10, 4(r12)
	addi r12, r12, 0x1000
	addi r10, r10, 1
	blt r10, r11, loop
	li r1, 1
	li r2, 5
	syscall
`, setup: pretouchAndFork(8), want: func(a []procAcct) bool {
			return len(a) == 2 && a[0].CowCost+a[1].CowCost >= 8*40
		}},
		{name: "smc-same-page", src: `
	la r5, patched
	li r6, ` + fmt.Sprint(patch) + `
	addi r8, r0, 3
again:
	sw r6, (r5)
patched:
	addi r7, r0, 1
	addi r8, r8, -1
	bne r8, r0, again
	li r1, 1
	add r2, r7, r0
	syscall
`, want: exitsWith(99)},
		{name: "misaligned-jalr", src: `
	la r5, target
	addi r5, r5, 2
	jalr r31, r5, 1
	li r1, 1
	li r2, 9
	syscall
target:
	addi r9, r0, 4
	li r1, 1
	add r2, r9, r0
	syscall
`, want: exitsWith(4)},
		{name: "undecodable-word", src: `
	addi r9, r0, 1
	addi r9, r9, 1
	sw r9, -16(sp)
	.word 0xffffffff
	li r1, 1
	syscall
`, want: faultsWith("cannot decode")},
		// With InterpCost 1 the syscall is the seventh instruction: the
		// last one that fits a 7-cycle budget.
		{name: "syscall-last-in-budget", src: `
	addi r9, r0, 1
	addi r9, r9, 1
	addi r9, r9, 1
	addi r9, r9, 1
	addi r9, r9, 1
	li r1, 8        ; getpid
	syscall
	addi r9, r9, 1
	li r1, 1
	add r2, r9, r0
	syscall
`, want: exitsWith(6)},
		// Back-to-back memory instructions: with a large surcharge each
		// overshoots whatever budget is left.
		{name: "mem-heavy", src: `
	li r12, 0x00300000
	li r10, 20
loop:
	sw r10, (r12)
	lw r11, (r12)
	sb r11, 5(r12)
	lbu r13, 5(r12)
	addi r10, r10, -1
	bne r10, r0, loop
	li r1, 1
	add r2, r13, r0
	syscall
`, want: exitsWith(1)},
		{name: "misaligned-load", src: `
	li r5, 0x00300002
	addi r9, r0, 1
	lw r6, (r5)
	li r1, 1
	syscall
`, want: faultsWith("misaligned")},
	}
}

func exitsWith(code uint32) func([]procAcct) bool {
	return func(a []procAcct) bool { return len(a) == 1 && a[0].Err == "" && a[0].ExitCode == code }
}

func faultsWith(text string) func([]procAcct) bool {
	return func(a []procAcct) bool { return len(a) > 0 && strings.Contains(a[0].Err, text) }
}

// runnerFor returns the runner of variant v (reference or batched) and
// the ring it records into, if any.
func runnerFor(v nativeVariant, ref bool) (kernel.Runner, *kernel.IPRing) {
	nr := kernel.NativeRunner{MemSurcharge: v.surcharge}
	if v.ring {
		nr.Ring = kernel.NewIPRing(16)
		nr.RingCost = 1
	}
	if ref {
		return stepRunner{nr}, nr.Ring
	}
	return nr, nr.Ring
}

// runCall is one direct Runner.Run call's outcome.
type runCall struct {
	PID  kernel.PID
	Used kernel.Cycles
	Stop kernel.StopReason
}

// spawnNative starts a kernel with prog loaded as one process on variant
// v's runner (the step reference when ref), applies setup, and attaches
// a profiler probe to every process when v asks for one. It returns the
// kernel and the runner's ring, if any.
func spawnNative(cfg kernel.Config, prog *asm.Program, v nativeVariant, ref bool,
	setup func(k *kernel.Kernel, p *kernel.Proc, r kernel.Runner)) (*kernel.Kernel, *kernel.IPRing) {
	k := kernel.New(cfg)
	r, ring := runnerFor(v, ref)
	m := mem.New()
	prog.LoadInto(m)
	regs := cpu.Regs{PC: prog.Entry}
	regs.R[isa.RegSP] = DefaultStackTop
	p := k.Spawn("app", m, regs, r)
	if setup != nil {
		setup(k, p, r)
	}
	if v.prof {
		for _, q := range k.Procs() {
			q.Prof = prof.NewProbe(3)
		}
	}
	return k, ring
}

// accounts returns the accounting of every process of k.
func accounts(k *kernel.Kernel, ring *kernel.IPRing) []procAcct {
	var accts []procAcct
	for _, q := range k.Procs() {
		accts = append(accts, acctOf(k, q, ring))
	}
	return accts
}

func assembleEdge(t *testing.T, c edgeCase) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(c.src)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return p
}

// driveEdge runs case c directly through the runner in fixed-budget
// calls, round-robin over the processes, without the kernel servicing
// syscalls, for up to 400 rounds. It returns every call's outcome and
// the final accounting of every process.
func driveEdge(t *testing.T, c edgeCase, v nativeVariant, budget kernel.Cycles, ref bool) ([]runCall, []procAcct) {
	t.Helper()
	k, ring := spawnNative(testKernelCfg(), assembleEdge(t, c), v, ref, c.setup)
	var calls []runCall
	for round := 0; round < 400; round++ {
		for _, q := range k.Procs() {
			if q.Err != nil {
				continue
			}
			used, stop := q.Runner.Run(k, q, budget)
			calls = append(calls, runCall{q.PID, used, stop})
		}
	}
	return calls, accounts(k, ring)
}

// runScheduled runs the kernel to completion and returns every process's
// accounting, preceded by the run's error if a guest fault ended it.
func runScheduled(k *kernel.Kernel, ring *kernel.IPRing) []procAcct {
	var accts []procAcct
	if err := k.Run(); err != nil {
		accts = append(accts, procAcct{Err: err.Error()})
	}
	return append(accts, accounts(k, ring)...)
}

// TestNativeRunnerMatchesStepReference checks the batched NativeRunner
// against the single-step reference on hand-written edge cases, for
// budgets of 1, 7 and 200 cycles and every runner variant: each direct
// Run call must return the same cycles and stop reason, and every
// process must end with identical registers and accounting.
func TestNativeRunnerMatchesStepReference(t *testing.T) {
	for _, c := range nativeEdgeCases(t) {
		for _, v := range nativeVariants {
			for _, budget := range []kernel.Cycles{1, 7, 200} {
				name := fmt.Sprintf("%s/%s/budget%d", c.name, v.name, budget)
				refCalls, refAcct := driveEdge(t, c, v, budget, true)
				calls, acct := driveEdge(t, c, v, budget, false)
				if !reflect.DeepEqual(calls, refCalls) {
					t.Errorf("%s: Run calls diverge: %s", name, firstCallDiff(calls, refCalls))
				}
				if !reflect.DeepEqual(acct, refAcct) {
					t.Errorf("%s: direct-drive accounting diverges:\n got %+v\nwant %+v", name, acct, refAcct)
				}
				cfg := testKernelCfg()
				cfg.Cost.Quantum = budget
				refAcct = runScheduled(spawnNative(cfg, assembleEdge(t, c), v, true, c.setup))
				if !c.want(refAcct) {
					t.Errorf("%s: reference run did not exercise the case (%d processes, first %s, code %d, err %q)",
						name, len(refAcct), refAcct[0].Name, refAcct[0].ExitCode, refAcct[0].Err)
				}
				acct = runScheduled(spawnNative(cfg, assembleEdge(t, c), v, false, c.setup))
				if !reflect.DeepEqual(acct, refAcct) {
					t.Errorf("%s: scheduled accounting diverges:\n got %+v\nwant %+v", name, acct, refAcct)
				}
			}
		}
	}
}

func firstCallDiff(got, want []runCall) string {
	for i := range got {
		if i >= len(want) || got[i] != want[i] {
			var w any = "none"
			if i < len(want) {
				w = want[i]
			}
			return fmt.Sprintf("call %d: got %+v, want %+v", i, got[i], w)
		}
	}
	return fmt.Sprintf("got %d calls, want %d", len(got), len(want))
}

// TestNativeCatalogMatchesStepReference runs every catalog program at
// small scale natively (with and without the profiler) under both
// runners and requires identical NativeResults and per-process
// accounting.
func TestNativeCatalogMatchesStepReference(t *testing.T) {
	cfg := testKernelCfg()
	for _, spec := range workload.Catalog() {
		scaled := spec.Scaled(0.01)
		prog, err := scaled.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, interval := range []uint64{0, 97} {
			ref, got := bothRunners(t, func() *NativeResult {
				res, err := RunNativeProf(cfg, prog, scaled.NativeMemCost, interval)
				if err != nil {
					t.Fatalf("%s: %v", spec.Name, err)
				}
				return res
			})
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s interval=%d: NativeResult diverges:\n got %+v\nwant %+v", spec.Name, interval, got, ref)
			}
		}
		runProcs := func(ref bool) []procAcct {
			return runScheduled(spawnNative(cfg, prog, nativeVariant{surcharge: scaled.NativeMemCost}, ref, nil))
		}
		if got, ref := runProcs(false), runProcs(true); !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: process accounting diverges:\n got %+v\nwant %+v", spec.Name, got, ref)
		}
	}
}

// TestSuperPinMasterMatchesStepReference runs SuperPin with the master
// on the reference and on the batched runner, with the master's observer
// probe (ProfInterval > 0) and with the IP-history detector (the ring
// path), and requires identical Results, tool counts and event streams.
func TestSuperPinMasterMatchesStepReference(t *testing.T) {
	type outcome struct {
		Res    *Result
		Count  uint64
		Events []obs.Event
	}
	progs := map[string]*asm.Program{"syscall-workload": buildWorkload(t, 3000, 31, kernel.SysRand)}
	surcharge := map[string]kernel.Cycles{}
	for _, name := range []string{"gzip", "gcc", "mcf"} {
		spec, _ := workload.ByName(name)
		scaled := spec.Scaled(0.02)
		prog, err := scaled.Build()
		if err != nil {
			t.Fatal(err)
		}
		progs[name], surcharge[name] = prog, scaled.NativeMemCost
	}
	modes := map[string]func(*Options){
		"prof":        func(o *Options) { o.ProfInterval = 101 },
		"iphistory":   func(o *Options) { o.Detector = DetectorIPHistory },
		"prof+ipring": func(o *Options) { o.ProfInterval = 53; o.Detector = DetectorIPHistory },
	}
	for pname, prog := range progs {
		for mname, mode := range modes {
			ref, got := bothRunners(t, func() outcome {
				opts := smallOpts(20)
				opts.NativeMemSurcharge = surcharge[pname]
				mode(&opts)
				tr := obs.NewTracer()
				opts.Trace = tr
				factory, count := newIcount()
				res, err := Run(testKernelCfg(), prog, factory, opts)
				if err != nil {
					t.Fatalf("%s/%s: %v", pname, mname, err)
				}
				if res.Err != nil {
					t.Fatalf("%s/%s: %v", pname, mname, res.Err)
				}
				return outcome{res, count(), tr.Events()}
			})
			if got.Count != ref.Count {
				t.Errorf("%s/%s: tool count %d, reference %d", pname, mname, got.Count, ref.Count)
			}
			if !reflect.DeepEqual(got.Res, ref.Res) {
				t.Errorf("%s/%s: Result diverges from the step reference", pname, mname)
			}
			if !reflect.DeepEqual(got.Events, ref.Events) {
				t.Errorf("%s/%s: event stream diverges (%d vs %d events)", pname, mname, len(got.Events), len(ref.Events))
			}
		}
	}
}

// FuzzNativeRunner runs random instruction words (mostly well-formed,
// some raw) under both runners with a random budget and surcharge,
// optionally with a forked sibling sharing the image (so stores copy)
// and with the ring path. Registers, cycles used, stop reasons,
// instruction counts and error text must agree call by call.
func FuzzNativeRunner(f *testing.F) {
	f.Add([]byte{0x0d, 0x05, 0x00, 0x07, 0x1b, 0x05, 0x06, 0x00, 0x2a, 0, 0, 0}, uint16(7), uint8(3), uint8(0))
	f.Add([]byte{0x1b, 0x02, 0x03, 0x00, 0x16, 0x04, 0x02, 0x00, 0x1c, 0x00, 0xff, 0xff}, uint16(1), uint8(50), uint8(1))
	f.Add([]byte{0x9f, 0xff, 0xff, 0xff, 0x0d, 0x01, 0x00, 0x01}, uint16(200), uint8(0), uint8(2))
	f.Add([]byte{0x1b, 0x01, 0x04, 0x00, 0x1b, 0x02, 0x05, 0x00, 0x24, 0x00, 0x06, 0x00}, uint16(13), uint8(1), uint8(3))
	f.Add([]byte{0x23, 0x1f, 0x08, 0x02, 0x2a, 0, 0, 0, 0x1e, 0x03, 0x07, 0x00}, uint16(64), uint8(9), uint8(1))
	f.Fuzz(func(t *testing.T, code []byte, budget uint16, surcharge uint8, flags uint8) {
		if len(code) > 256 {
			code = code[:256]
		}
		b := kernel.Cycles(budget%512) + 1
		v := nativeVariant{surcharge: kernel.Cycles(surcharge % 64), ring: flags&2 != 0}
		run := func(ref bool) ([]runCall, []procAcct) {
			m := fuzzImage(code)
			k := kernel.New(testKernelCfg())
			r, ring := runnerFor(v, ref)
			regs := cpu.Regs{PC: fuzzBase}
			for i := 1; i < isa.NumRegs; i++ {
				regs.R[i] = fuzzBase + uint32(i)*0x404
			}
			p := k.Spawn("fuzz", m, regs, r)
			if flags&1 != 0 {
				k.Fork(p, "sibling", r, false)
			}
			var calls []runCall
			for i := 0; i < 8 && p.Err == nil; i++ {
				used, stop := r.Run(k, p, b)
				calls = append(calls, runCall{p.PID, used, stop})
			}
			return calls, []procAcct{acctOf(k, p, ring)}
		}
		refCalls, refAcct := run(true)
		calls, acct := run(false)
		if !reflect.DeepEqual(calls, refCalls) {
			t.Fatalf("Run calls diverge: %s", firstCallDiff(calls, refCalls))
		}
		if !reflect.DeepEqual(acct, refAcct) {
			t.Fatalf("accounting diverges:\n got %+v\nwant %+v", acct, refAcct)
		}
	})
}

// fuzzBase is where FuzzNativeRunner loads its code; registers point
// into and just past it, so loads and stores hit the code page itself
// (self-modification) as well as fresh pages.
const fuzzBase = 0x0001_0000

// fuzzImage turns fuzz bytes into an image: each 4-byte group becomes
// one instruction, encoded from its fields when the top bit of its first
// byte is clear and taken as a raw word otherwise.
func fuzzImage(code []byte) *mem.Memory {
	m := mem.New()
	for i := 0; i+4 <= len(code); i += 4 {
		g := code[i : i+4]
		w := uint32(g[0]) | uint32(g[1])<<8 | uint32(g[2])<<16 | uint32(g[3])<<24
		if g[0]&0x80 == 0 {
			in := isa.Inst{
				Op:  isa.Opcode(int(g[0]) % isa.NumOpcodes),
				Rd:  g[1] % isa.NumRegs,
				Rs1: g[2] % isa.NumRegs,
				Rs2: g[3] % isa.NumRegs,
				Imm: int32(int8(g[3])) * 4,
			}
			if enc, err := isa.Encode(in); err == nil {
				w = enc
			}
		}
		m.StoreWord(fuzzBase+uint32(i), w)
	}
	return m
}

// TestStepRunnerSeamIsUsed guards the differential tests above against
// silently comparing the batched runner with itself.
func TestStepRunnerSeamIsUsed(t *testing.T) {
	ref, got := bothRunners(t, func() string {
		return fmt.Sprintf("%T", nativeRunner(kernel.NativeRunner{}))
	})
	if !strings.HasSuffix(ref, "stepRunner") || got != "kernel.NativeRunner" {
		t.Fatalf("runners = %s, %s", ref, got)
	}
}
