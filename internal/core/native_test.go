package core

import (
	"errors"
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
	"superpin/internal/pin"
	"superpin/internal/prof"
	"superpin/internal/workload"
)

// stepRunner returns the reference native runner: kernel.NativeRunner,
// the per-instruction cpu.Step loop that settles every charge after
// every instruction. The engine-based native runner must reproduce its
// accounting exactly.
func stepRunner(_, memSurcharge kernel.Cycles) kernel.Runner {
	return kernel.NativeRunner{MemSurcharge: memSurcharge}
}

// bothRunners calls run once with core's native runner swapped for the
// step reference and once with the engine, returning both results
// (reference first).
func bothRunners[T any](t *testing.T, run func() T) (ref, got T) {
	t.Helper()
	func() {
		saved := nativeRunner
		defer func() { nativeRunner = saved }()
		nativeRunner = stepRunner
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
	ProfSamples             []prof.Sample
	ProfPos                 uint64
	ProfStack               []prof.Frame
	ProfMaxDepth            int
	ExitedState, Stdout     string
	ForkCost, WaitTime, Now kernel.Cycles
}

func acctOf(k *kernel.Kernel, p *kernel.Proc) procAcct {
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
	if pr := p.Prof; pr != nil {
		a.ProfSamples, a.ProfPos, a.ProfStack, a.ProfMaxDepth = pr.Samples(), pr.Pos(), pr.Stack(), pr.MaxDepth()
	}
	return a
}

// nativeVariant selects what the native runners under test carry.
type nativeVariant struct {
	name      string
	surcharge kernel.Cycles
	prof      bool // profiler probe on every process
}

var nativeVariants = []nativeVariant{
	{name: "plain"},
	{name: "surcharge3", surcharge: 3},
	{name: "surcharge50", surcharge: 50},
	{name: "prof", surcharge: 3, prof: true},
}

// edgeCase is a hand-written program plus optional setup (for example a
// fork after pre-touching pages) run under both runners. The setup gets
// a constructor for the runner under test, for the processes it makes.
type edgeCase struct {
	name  string
	src   string
	setup func(k *kernel.Kernel, p *kernel.Proc, mk func() kernel.Runner)
	// want checks that the scheduled reference run exercised the case.
	want func(a []procAcct) bool
}

// pretouchAndFork writes n data pages at 0x200000 in the parent and forks
// a runnable child sharing them, so the first guest store to each page
// is a copy-on-write copy (charged to whichever process stores first).
func pretouchAndFork(n uint32) func(k *kernel.Kernel, p *kernel.Proc, mk func() kernel.Runner) {
	return func(k *kernel.Kernel, p *kernel.Proc, mk func() kernel.Runner) {
		for i := uint32(0); i < n; i++ {
			p.Mem.StoreWord(0x0020_0000+i*mem.PageSize, i)
		}
		k.Fork(p, "child", mk(), true)
	}
}

// patchWord is the instruction the self-modifying cases store over
// their code: addi r7, r0, 99 (the unpatched code leaves r7 != 99).
var patchWord = func() uint32 {
	w, err := isa.Encode(isa.Inst{Op: isa.OpADDI, Rd: 7, Imm: 99})
	if err != nil {
		panic(err)
	}
	return w
}()

// callPatchedSrc calls target, then stores patchWord over target's first
// instruction (a trace already translated by then, on the same page) and
// calls it again, exiting with what target left in r7.
var callPatchedSrc = `
	li r8, 2
	li r7, 0
	la r5, target
	li r6, ` + fmt.Sprint(patchWord) + `
loop:
	call target
	sw r6, (r5)
	addi r8, r8, -1
	bne r8, r0, loop
	li r1, 1
	add r2, r7, r0
	syscall
target:
	addi r7, r0, 1
	ret
`

// readPatchedSrc executes an instruction, then three times reads one
// byte of the kernel's input stream over its low immediate byte and
// executes it again, right after the read: read() storing into code
// already translated, which is the next code to run. The exit code sums
// the three executions' values (0x3000 if no read took effect).
const readPatchedSrc = `
	li r8, 3
	li r10, 0
	la r5, site
	j site
loop:
	li r1, 3
	li r2, 0
	add r3, r5, r0
	li r4, 1
	syscall
site:
	addi r7, r0, 0x1000
	add r10, r10, r7
	addi r8, r8, -1
	bne r8, r0, loop
	li r1, 1
	add r2, r10, r0
	syscall
`

func nativeEdgeCases() []edgeCase {
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
	li r6, ` + fmt.Sprint(patchWord) + `
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
		// Self-modifying code the engine has already translated: each
		// case exits 99 only if the store's new instruction executes.
		{name: "smc-next-ins", src: `
	la r5, patched
	li r6, ` + fmt.Sprint(patchWord) + `
	sw r6, (r5)
patched:
	addi r7, r0, 1
	li r1, 1
	add r2, r7, r0
	syscall
`, want: exitsWith(99)},
		{name: "smc-other-trace", src: callPatchedSrc, want: exitsWith(99)},
		{name: "smc-after-fork", src: callPatchedSrc,
			setup: func(k *kernel.Kernel, p *kernel.Proc, mk func() kernel.Runner) {
				k.Fork(p, "child", mk(), true)
			},
			want: func(a []procAcct) bool {
				return len(a) == 2 && a[0].ExitCode == 99 && a[1].ExitCode == 99 && a[0].CowCost+a[1].CowCost > 0
			}},
		// The routine at 0x2ff8 starts on a page never written: its
		// first translation and execution read the zero page's nops.
		{name: "smc-unmapped-page", src: `
	li r7, 1
	li r8, 2
	li r5, 0x2ff8
	li r6, ` + fmt.Sprint(patchWord) + `
loop:
	jalr r31, r5, 0
	sw r6, (r5)
	addi r8, r8, -1
	bne r8, r0, loop
	li r1, 1
	add r2, r7, r0
	syscall
	.org 0x3000
	ret
`, want: exitsWith(99)},
		{name: "smc-read", src: readPatchedSrc, want: func(a []procAcct) bool {
			return len(a) == 1 && a[0].Err == "" && a[0].ExitCode&^0x3ff == 0x3000 && a[0].ExitCode != 0x3000
		}},
	}
}

func exitsWith(code uint32) func([]procAcct) bool {
	return func(a []procAcct) bool { return len(a) == 1 && a[0].Err == "" && a[0].ExitCode == code }
}

func faultsWith(text string) func([]procAcct) bool {
	return func(a []procAcct) bool { return len(a) > 0 && strings.Contains(a[0].Err, text) }
}

// runnerFor returns a constructor for variant v's runner: the step
// reference when ref, core's native engine otherwise.
func runnerFor(cfg kernel.Config, v nativeVariant, ref bool) func() kernel.Runner {
	mk := nativeRunner
	if ref {
		mk = stepRunner
	}
	return func() kernel.Runner { return mk(cfg.Cost.InterpCost, v.surcharge) }
}

// runCall is one direct Runner.Run call's outcome.
type runCall struct {
	PID  kernel.PID
	Used kernel.Cycles
	Stop kernel.StopReason
}

// spawnNative starts a kernel with prog loaded as one process on variant
// v's runner (the step reference when ref), with every thread it spawns
// on a runner of its own, applies setup, and attaches a profiler probe
// to every process when v asks for one.
func spawnNative(cfg kernel.Config, prog *asm.Program, v nativeVariant, ref bool,
	setup func(k *kernel.Kernel, p *kernel.Proc, mk func() kernel.Runner)) *kernel.Kernel {
	k := kernel.New(cfg)
	mk := runnerFor(cfg, v, ref)
	k.ThreadRunner = func(*kernel.Proc) kernel.Runner { return mk() }
	m := mem.New()
	prog.LoadInto(m)
	regs := cpu.Regs{PC: prog.Entry}
	regs.R[isa.RegSP] = DefaultStackTop
	p := k.Spawn("app", m, regs, mk())
	if setup != nil {
		setup(k, p, mk)
	}
	if v.prof {
		for _, q := range k.Procs() {
			q.Prof = prof.NewProbe(3)
		}
	}
	return k
}

// accounts returns the accounting of every process of k.
func accounts(k *kernel.Kernel) []procAcct {
	var accts []procAcct
	for _, q := range k.Procs() {
		accts = append(accts, acctOf(k, q))
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
	k := spawnNative(testKernelCfg(), assembleEdge(t, c), v, ref, c.setup)
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
	return calls, accounts(k)
}

// runScheduled runs the kernel to completion and returns every process's
// accounting, preceded by the run's error if a guest fault ended it.
func runScheduled(k *kernel.Kernel) []procAcct {
	var accts []procAcct
	if err := k.Run(); err != nil {
		accts = append(accts, procAcct{Err: err.Error()})
	}
	return append(accts, accounts(k)...)
}

// TestNativeRunnerMatchesStepReference checks the native engine against
// the single-step reference on hand-written edge cases, for
// budgets of 1, 7 and 200 cycles and every runner variant: each direct
// Run call must return the same cycles and stop reason, and every
// process must end with identical registers and accounting.
func TestNativeRunnerMatchesStepReference(t *testing.T) {
	for _, c := range nativeEdgeCases() {
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

// insCountTool counts at every instruction (icount1-style) into a
// slice-local counter, auto-merged (sum) into the shared area.
type insCountTool struct{ local []uint64 }

func (t insCountTool) Instrument(tr *pin.Trace) {
	for _, bbl := range tr.Bbls() {
		for _, ins := range bbl.Ins() {
			ins.InsertCall(pin.Before, func(*pin.Ctx) { t.local[0]++ })
		}
	}
}

// newInsCount returns an insCountTool factory and an accessor for the
// final count.
func newInsCount() (ToolFactory, func() uint64) {
	var result []uint64
	factory := func(ctl *ToolCtl) Tool {
		tl := insCountTool{local: make([]uint64, 1)}
		shared := ctl.CreateSharedArea(tl.local, MergeSum)
		if ctl.SliceNum() == -1 {
			result = shared
		}
		return tl
	}
	return factory, func() uint64 { return result[0] }
}

// TestSMCEdgeCasesAgreeAcrossModes runs the self-modifying edge cases
// natively, under serial Pin and under SuperPin with a per-instruction
// count: every mode must execute the stored instructions, exit with
// native's code and count native's instructions, SuperPin with and
// without its shared code cache. (The fork case needs no setup here:
// SuperPin's slices run on copy-on-write forks.) The
// count is per instruction because a store into the rest of the block it
// executes in makes a count taken at block heads inexact, as under Pin:
// the block was counted whole before the store rewrote its tail.
func TestSMCEdgeCasesAgreeAcrossModes(t *testing.T) {
	cfg := testKernelCfg()
	for _, c := range nativeEdgeCases() {
		if !strings.HasPrefix(c.name, "smc-") || c.setup != nil {
			continue
		}
		prog := assembleEdge(t, c)
		native, err := RunNative(cfg, prog, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !c.want([]procAcct{{ExitCode: native.ExitCode}}) {
			t.Fatalf("%s: native exit %d does not show the stored code", c.name, native.ExitCode)
		}
		factory, count := newInsCount()
		pinRes, err := RunPin(cfg, prog, factory, pin.DefaultCost())
		if err != nil {
			t.Fatalf("%s: pin: %v", c.name, err)
		}
		if pinRes.ExitCode != native.ExitCode || count() != native.Ins {
			t.Errorf("%s: pin exit/icount = %d/%d, native %d/%d", c.name, pinRes.ExitCode, count(), native.ExitCode, native.Ins)
		}
		// With the shared code cache, a slice that drops a stale trace
		// must not adopt it back from the shared translations.
		for _, shared := range []bool{false, true} {
			opts := smallOpts(5)
			opts.SharedCodeCache = shared
			factory, count = newInsCount()
			res, err := Run(cfg, prog, factory, opts)
			if err != nil {
				t.Fatalf("%s: superpin: %v", c.name, err)
			}
			if res.Err != nil || res.ExitCode != native.ExitCode || count() != native.Ins {
				t.Errorf("%s shared=%v: superpin exit/icount = %d/%d (err %v), native %d/%d",
					c.name, shared, res.ExitCode, count(), res.Err, native.ExitCode, native.Ins)
			}
		}
	}
}

// guestFault returns the text of the *cpu.Error err wraps, or "" when it
// wraps none.
func guestFault(err error) string {
	var ce *cpu.Error
	if !errors.As(err, &ce) {
		return ""
	}
	return ce.Error()
}

// TestFaultEdgeCasesAgreeAcrossModes runs the faulting edge cases — a
// reachable undecodable word and a misaligned load — natively, under
// serial Pin and under SuperPin. No mode verifies the image at load:
// each runs until the bad instruction executes, and every mode reports
// the same *cpu.Error, the fault native execution raises there.
func TestFaultEdgeCasesAgreeAcrossModes(t *testing.T) {
	cfg := testKernelCfg()
	for _, c := range nativeEdgeCases() {
		if c.name != "undecodable-word" && c.name != "misaligned-load" {
			continue
		}
		prog := assembleEdge(t, c)
		_, err := RunNative(cfg, prog, 0)
		want := guestFault(err)
		if !c.want([]procAcct{{Err: want}}) {
			t.Fatalf("%s: native run returned %v, not the expected fault", c.name, err)
		}
		factory, _ := newInsCount()
		if _, err := RunPin(cfg, prog, factory, pin.DefaultCost()); guestFault(err) != want {
			t.Errorf("%s: pin returned %v, want the native fault %q", c.name, err, want)
		}
		factory, _ = newInsCount()
		res, err := Run(cfg, prog, factory, smallOpts(5))
		if err == nil && res != nil {
			err = res.Err
		}
		if guestFault(err) != want {
			t.Errorf("%s: superpin returned %v, want the native fault %q", c.name, err, want)
		}
	}
}

// threadedSMCSrc: a worker thread calls target until it returns 99,
// flagging its first call; main waits for that flag, stores patchWord
// over target — a trace only the worker's runner translated — and exits
// with what the worker last saw. Unpatched code would leave the worker
// at 1 for its whole bounded loop.
var threadedSMCSrc = `
	.entry main
target:
	addi r7, r0, 1
	ret
worker:
	li r20, 0
	li r21, 100000
	li r22, 0x9000
	li r9, 99
wloop:
	call target
	li r13, 1
	sw r13, (r22)
	beq r7, r9, wdone
	addi r20, r20, 1
	blt r20, r21, wloop
wdone:
	sw r7, 4(r22)
	sw r13, 8(r22)
wspin:
	li r1, 10
	syscall
	j wspin
main:
	li r1, 11
	la r2, worker
	li r3, 0x00e00000
	li r4, 0
	syscall
	li r14, 0x9000
wait1:
	li r1, 10
	syscall
	lw r15, (r14)
	beq r15, zero, wait1
	la r5, target
	li r6, ` + fmt.Sprint(patchWord) + `
	sw r6, (r5)
wait2:
	li r1, 10
	syscall
	lw r15, 8(r14)
	beq r15, zero, wait2
	lw r2, 4(r14)
	li r1, 1
	syscall
`

// TestThreadedNativeMatchesStepReference runs multithreaded guests —
// the disjoint-sum program and one whose main thread stores into code
// its worker thread has translated — natively on the step reference
// and on per-thread engines, and requires identical accounting process
// by process, scheduled and under a profiler probe.
func TestThreadedNativeMatchesStepReference(t *testing.T) {
	cfg := testKernelCfg()
	for name, src := range map[string]string{"sum": threadedSrc, "smc": threadedSMCSrc} { //detguard:ok independent cases
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, v := range nativeVariants {
			ref := runScheduled(spawnNative(cfg, prog, v, true, nil))
			got := runScheduled(spawnNative(cfg, prog, v, false, nil))
			if len(ref) < 2 {
				t.Fatalf("%s/%s: reference ran %d processes, want threads", name, v.name, len(ref))
			}
			if name == "smc" && ref[0].ExitCode != 99 {
				t.Fatalf("%s/%s: reference exit %d, want 99", name, v.name, ref[0].ExitCode)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s/%s: accounting diverges:\n got %+v\nwant %+v", name, v.name, got, ref)
			}
		}
		ref, got := bothRunners(t, func() *NativeResult {
			res, err := RunNative(cfg, prog, 0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res
		})
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: NativeResult diverges:\n got %+v\nwant %+v", name, got, ref)
		}
	}
}

// TestSuperPinMasterMatchesStepReference runs SuperPin with the master
// on the reference and on the native engine, plain and with the master's
// observer probe (ProfInterval > 0), and requires identical Results,
// tool counts and event streams. (The IP-history detector's master runs
// on the reference itself.)
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
		"plain": func(o *Options) {},
		"prof":  func(o *Options) { o.ProfInterval = 101 },
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
// optionally with a forked sibling sharing the image (so stores copy).
// Registers, cycles used, stop reasons, instruction counts and error
// text must agree call by call.
func FuzzNativeRunner(f *testing.F) {
	f.Add([]byte{0x0d, 0x05, 0x00, 0x07, 0x1b, 0x05, 0x06, 0x00, 0x2a, 0, 0, 0}, uint16(7), uint8(3), uint8(0))
	f.Add([]byte{0x1b, 0x02, 0x03, 0x00, 0x16, 0x04, 0x02, 0x00, 0x1c, 0x00, 0xff, 0xff}, uint16(1), uint8(50), uint8(1))
	f.Add([]byte{0x9f, 0xff, 0xff, 0xff, 0x0d, 0x01, 0x00, 0x01}, uint16(200), uint8(0), uint8(2))
	f.Add([]byte{0x1b, 0x01, 0x04, 0x00, 0x1b, 0x02, 0x05, 0x00, 0x24, 0x00, 0x06, 0x00}, uint16(13), uint8(1), uint8(3))
	f.Add([]byte{0x23, 0x1f, 0x08, 0x02, 0x2a, 0, 0, 0, 0x1e, 0x03, 0x07, 0x00}, uint16(64), uint8(9), uint8(1))
	// Jumps to 0xffffffe8: the translated trace wraps past the top of
	// the address space, as the PC does.
	f.Add([]byte("000\xfa#00\xfa700\xfa700\xfa"), uint16(41), uint8(3), uint8('M'))
	f.Fuzz(func(t *testing.T, code []byte, budget uint16, surcharge uint8, flags uint8) {
		if len(code) > 256 {
			code = code[:256]
		}
		b := kernel.Cycles(budget%512) + 1
		v := nativeVariant{surcharge: kernel.Cycles(surcharge % 64)}
		run := func(ref bool) ([]runCall, []procAcct) {
			m := fuzzImage(code)
			cfg := testKernelCfg()
			k := kernel.New(cfg)
			mk := runnerFor(cfg, v, ref)
			r := mk()
			regs := cpu.Regs{PC: fuzzBase}
			for i := 1; i < isa.NumRegs; i++ {
				regs.R[i] = fuzzBase + uint32(i)*0x404
			}
			// r1..r4 point into the code words, so stores there rewrite
			// instructions the runner may already have translated.
			for i := 1; i <= 4; i++ {
				regs.R[i] = fuzzBase + uint32(i-1)*0x40
			}
			p := k.Spawn("fuzz", m, regs, r)
			if flags&1 != 0 {
				k.Fork(p, "sibling", mk(), false)
			}
			var calls []runCall
			for i := 0; i < 8 && p.Err == nil; i++ {
				used, stop := r.Run(k, p, b)
				calls = append(calls, runCall{p.PID, used, stop})
			}
			return calls, []procAcct{acctOf(k, p)}
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
// into the code words and past them, so loads and stores hit the code
// itself (self-modification) as well as fresh pages.
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
// silently comparing a runner with itself.
func TestStepRunnerSeamIsUsed(t *testing.T) {
	ref, got := bothRunners(t, func() string {
		return fmt.Sprintf("%T", nativeRunner(1, 0))
	})
	if ref != "kernel.NativeRunner" || got != "*pin.Engine" {
		t.Fatalf("runners = %s, %s", ref, got)
	}
}
