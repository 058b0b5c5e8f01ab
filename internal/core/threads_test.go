package core

import (
	"strings"
	"testing"

	"superpin/internal/asm"
	"superpin/internal/cpu"
	"superpin/internal/isa"
	"superpin/internal/kernel"
	"superpin/internal/mem"
	"superpin/internal/pin"
)

// threadedSrc: main spawns two worker threads that each sum a disjoint
// range into shared memory, sets completion flags, and main spins until
// both finish, then folds the results into the exit code. The final
// values are interleaving-independent, so native and Pin runs must agree
// on the exit code even though spin counts differ.
const threadedSrc = `
	.entry main
worker:
	; r2 = base index (0 or 1000); sums base..base+999 into result slot
	li r5, 0       ; sum
	mv r6, r2      ; i
	add r7, r2, zero
	li r8, 1000
	add r8, r8, r2 ; limit
wloop:
	add r5, r5, r6
	addi r6, r6, 1
	blt r6, r8, wloop
	; result slot at 0x9000 + (base/1000)*4 ; flag at 0x9100 + ...
	li r9, 1000
	div r10, r2, r9
	slli r10, r10, 2
	li r11, 0x9000
	add r11, r11, r10
	sw r5, (r11)
	li r12, 0x9100
	add r12, r12, r10
	li r13, 1
	sw r13, (r12)
	; workers spin forever; main exits the group
spin:
	li r1, 10     ; yield
	syscall
	j spin
main:
	; spawn(worker, stack, arg)
	li r1, 11
	la r2, worker
	li r3, 0x00e00000
	li r4, 0
	syscall
	li r1, 11
	la r2, worker
	li r3, 0x00e10000
	li r4, 1000
	syscall
	; wait for both flags
wait:
	li r1, 10     ; yield
	syscall
	li r14, 0x9100
	lw r15, (r14)
	lw r16, 4(r14)
	and r17, r15, r16
	beq r17, zero, wait
	; exit((sum0 + sum1) & 0xff)
	li r14, 0x9000
	lw r15, (r14)
	lw r16, 4(r14)
	add r17, r15, r16
	li r1, 1
	andi r2, r17, 255
	syscall
`

func TestThreadedAppNativeAndPinAgree(t *testing.T) {
	prog, err := asm.Assemble(threadedSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testKernelCfg()
	native, err := RunNative(cfg, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	// sum(0..999) + sum(1000..1999) = 1999000; & 0xff = 0x58 = 88.
	if native.ExitCode != 1999000&0xff {
		t.Fatalf("native exit %d, want %d", native.ExitCode, 1999000&0xff)
	}

	factory, _ := newIcount()
	pinRes, err := RunPin(cfg, prog, factory, pin.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	if pinRes.ExitCode != native.ExitCode {
		t.Fatalf("pin exit %d, native %d", pinRes.ExitCode, native.ExitCode)
	}
	// All three threads executed work: total instructions well above a
	// single worker's loop.
	if pinRes.Ins < 6000 {
		t.Fatalf("pin counted only %d instructions for 3 threads", pinRes.Ins)
	}
}

// TestThreadedSuperPinExactWithReplay exercises the Section 8 future-work
// implementation: with Options.Threads, slices deterministically replay
// the master thread group's recorded schedule, and a per-instruction tool
// counts exactly the instructions the master group executed.
func TestThreadedSuperPinExactWithReplay(t *testing.T) {
	prog, err := asm.Assemble(threadedSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testKernelCfg()
	native, err := RunNative(cfg, prog, 0)
	if err != nil {
		t.Fatal(err)
	}

	// icount1-style per-instruction counting (threaded replay's exactness
	// guarantee is instruction-granularity).
	var count uint64
	factory := func(ctl *ToolCtl) Tool {
		local := make([]uint64, 1)
		shared := ctl.CreateSharedArea(local, MergeSum)
		return perInsShared{local: local, shared: shared, out: &count, master: ctl.SliceNum() == -1}
	}

	opts := smallOpts(20)
	opts.Threads = true
	res, err := Run(cfg, prog, factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Stats.Divergences != 0 {
		t.Fatalf("%d divergences", res.Stats.Divergences)
	}
	if res.Stats.Forks < 2 {
		t.Fatalf("only %d slices; want several", res.Stats.Forks)
	}
	if res.ExitCode != native.ExitCode {
		t.Fatalf("exit %d, native %d", res.ExitCode, native.ExitCode)
	}
	// Slices replay exactly the master group's execution. (The master's
	// own instruction count differs from the separate native run's — spin
	// loops run for different durations — so MasterIns is the reference.)
	if count != res.MasterIns {
		t.Fatalf("replayed icount %d, master group executed %d", count, res.MasterIns)
	}
	if res.SliceIns != res.MasterIns {
		t.Fatalf("slice coverage %d != master %d", res.SliceIns, res.MasterIns)
	}
}

// TestThreadedSuperPinStress runs a heavier three-worker application —
// long loops, rand syscalls in the master's wait loop, threads spawned at
// different times so slices must materialize contexts from spawn records
// — across many small timeslices.
func TestThreadedSuperPinStress(t *testing.T) {
	src := `
	.entry main
worker:
	; r2 = id*65536 base; sum 30000 iterations into slot id
	li r5, 0
	li r6, 0
	li r8, 30000
wloop:
	add r5, r5, r6
	xor r5, r5, r2
	addi r6, r6, 1
	blt r6, r8, wloop
	srli r10, r2, 16   ; id
	slli r11, r10, 2
	li r12, 0x9000
	add r12, r12, r11
	sw r5, (r12)
	li r13, 0x9100
	add r13, r13, r11
	li r14, 1
	sw r14, (r13)
spin:
	li r1, 10
	syscall
	j spin
main:
	li r20, 0          ; spawned count
	li r21, 0          ; id
spawnloop:
	li r1, 11
	la r2, worker
	li r3, 0x00e00000
	slli r4, r21, 16   ; stagger stacks via arg too
	add r3, r3, r4
	mv r4, r4
	slli r4, r21, 16
	syscall
	addi r21, r21, 1
	addi r20, r20, 1
	; do some master work between spawns so threads start at
	; different points of the schedule
	li r22, 0
mwork:
	addi r22, r22, 1
	li r23, 5000
	blt r22, r23, mwork
	li r24, 3
	blt r21, r24, spawnloop
wait:
	li r1, 9           ; rand: exercises record/playback in the wait loop
	syscall
	li r14, 0x9100
	lw r15, (r14)
	lw r16, 4(r14)
	lw r17, 8(r14)
	and r18, r15, r16
	and r18, r18, r17
	beq r18, zero, wait
	li r14, 0x9000
	lw r15, (r14)
	lw r16, 4(r14)
	lw r17, 8(r14)
	add r18, r15, r16
	add r18, r18, r17
	li r1, 1
	andi r2, r18, 255
	syscall
`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testKernelCfg()
	native, err := RunNative(cfg, prog, 0)
	if err != nil {
		t.Fatal(err)
	}

	var count uint64
	factory := func(ctl *ToolCtl) Tool {
		local := make([]uint64, 1)
		shared := ctl.CreateSharedArea(local, MergeSum)
		return perInsShared{local: local, shared: shared, out: &count, master: ctl.SliceNum() == -1}
	}
	opts := smallOpts(20)
	opts.Threads = true
	opts.MaxSlices = 4 // force stalls too
	res, err := Run(cfg, prog, factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Stats.Divergences != 0 {
		t.Fatalf("%d divergences", res.Stats.Divergences)
	}
	if res.Stats.Forks < 5 {
		t.Fatalf("only %d slices", res.Stats.Forks)
	}
	if res.ExitCode != native.ExitCode {
		t.Fatalf("exit %d, native %d", res.ExitCode, native.ExitCode)
	}
	if count != res.MasterIns || res.SliceIns != res.MasterIns {
		t.Fatalf("replayed %d, slices %d, master %d", count, res.SliceIns, res.MasterIns)
	}
}

// perInsShared is a per-instruction counting tool whose master instance
// exposes the merged total.
type perInsShared struct {
	local  []uint64
	shared []uint64
	out    *uint64
	master bool
}

func (t perInsShared) Instrument(tr *pin.Trace) {
	for _, bbl := range tr.Bbls() {
		for _, ins := range bbl.Ins() {
			ins.InsertCall(pin.Before, func(*pin.Ctx) { t.local[0]++ })
		}
	}
}

func (t perInsShared) Fini(uint32) {
	if t.master {
		*t.out = t.shared[0]
	}
}

func TestSuperPinRejectsThreadedApp(t *testing.T) {
	prog, err := asm.Assemble(threadedSrc)
	if err != nil {
		t.Fatal(err)
	}
	factory, _ := newIcount()
	res, err := Run(testKernelCfg(), prog, factory, smallOpts(50))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil {
		t.Fatal("threaded app accepted by SuperPin")
	}
	if !strings.Contains(res.Err.Error(), "multithreaded") {
		t.Fatalf("unexpected error: %v", res.Err)
	}
}

// groupCow sums the copy-on-write charges of p's thread group.
func groupCow(k *kernel.Kernel, p *kernel.Proc) kernel.Cycles {
	var cow kernel.Cycles
	for _, q := range k.Procs() {
		if q.Group() == p.Group() {
			cow += q.CowCost
		}
	}
	return cow
}

// TestThreadGroupChargesEachCopyOnce runs threadedSrc with its data page
// written before the run and shared with a sleeping forked holder, so
// the group's first store to the page copies it — once, since all three
// threads share the image. The copy must be charged once (one PageCopy
// over the whole group), not once per thread, under the cpu.Step
// reference, the native engine and an instrumented engine.
func TestThreadGroupChargesEachCopyOnce(t *testing.T) {
	prog, err := asm.Assemble(threadedSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testKernelCfg()
	interp := cfg.Cost.InterpCost
	blockCounter := func() kernel.Runner {
		e := pin.NewEngine(pin.DefaultCost())
		e.AddTraceInstrumenter(func(tr *pin.Trace) {
			for _, bbl := range tr.Bbls() {
				bbl.InsHead().InsertCall(pin.Before, func(*pin.Ctx) {})
			}
		})
		return e
	}
	for _, r := range []struct {
		name string
		mk   func() kernel.Runner
	}{
		{"step", func() kernel.Runner { return stepRunner(interp, 0) }},
		{"native", func() kernel.Runner { return nativeRunner(interp, 0) }},
		{"pin", blockCounter},
	} {
		k := kernel.New(cfg)
		m := mem.New()
		prog.LoadInto(m)
		m.StoreWord(0x9000, 0)
		k.ThreadRunner = func(*kernel.Proc) kernel.Runner { return r.mk() }
		regs := cpu.Regs{PC: prog.Entry}
		regs.R[isa.RegSP] = DefaultStackTop
		p := k.Spawn("main", m, regs, r.mk())
		holder := k.Fork(p, "holder", kernel.NativeRunner{}, false)
		k.OnExit(p, func(*kernel.Proc) { k.Exit(holder, 0) })
		if err := k.Run(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if p.ExitCode != 1999000&0xff {
			t.Fatalf("%s: exit %d", r.name, p.ExitCode)
		}
		if m.Copies != 1 {
			t.Fatalf("%s: %d page copies, want 1", r.name, m.Copies)
		}
		if cow := groupCow(k, p); cow != k.PageCopy() {
			t.Errorf("%s: thread group charged %d copy-on-write cycles for one copy, want %d",
				r.name, cow, k.PageCopy())
		}
	}
}

// TestThreadedSuperPinChargesEachCopyOnce: under SuperPin with
// Options.Threads every fork shares the master group's pages with a
// slice, so the group copies pages again after each fork. Here main
// writes the data page before its spawn calls, which fork slices, so the
// workers' result stores copy it. However many copies that makes, the
// group is charged one PageCopy per copy.
func TestThreadedSuperPinChargesEachCopyOnce(t *testing.T) {
	src := strings.Replace(threadedSrc, "main:\n", "main:\n\tli r14, 0x9200\n\tsw r14, (r14)\n", 1)
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	var k *kernel.Kernel
	var master *kernel.Proc
	saved := nativeRunner
	t.Cleanup(func() { nativeRunner = saved })
	nativeRunner = func(interp, surcharge kernel.Cycles) kernel.Runner {
		r := saved(interp, surcharge)
		return runnerFunc(func(kk *kernel.Kernel, p *kernel.Proc, budget kernel.Cycles) (kernel.Cycles, kernel.StopReason) {
			if master == nil {
				k, master = kk, p
			}
			return r.Run(kk, p, budget)
		})
	}
	opts := smallOpts(20)
	opts.Threads = true
	factory, _ := newInsCount()
	res, err := Run(testKernelCfg(), prog, factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	copies := master.Mem.Copies
	if copies == 0 {
		t.Fatal("the master group copied no page; the test exercises nothing")
	}
	if cow := groupCow(k, master); cow != kernel.Cycles(copies)*k.PageCopy() {
		t.Errorf("master group charged %d copy-on-write cycles for %d copies, want %d",
			cow, copies, kernel.Cycles(copies)*k.PageCopy())
	}
}

// runnerFunc adapts a function to kernel.Runner.
type runnerFunc func(*kernel.Kernel, *kernel.Proc, kernel.Cycles) (kernel.Cycles, kernel.StopReason)

func (f runnerFunc) Run(k *kernel.Kernel, p *kernel.Proc, budget kernel.Cycles) (kernel.Cycles, kernel.StopReason) {
	return f(k, p, budget)
}
