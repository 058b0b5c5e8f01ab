package pin

import (
	"testing"

	"superpin/internal/asm"
	"superpin/internal/cpu"
	"superpin/internal/isa"
	"superpin/internal/jit"
	"superpin/internal/kernel"
	"superpin/internal/mem"
)

// The fast paths (trace linking, superblock batching, budget hoisting)
// are host-side only: every virtual-cycle outcome must be byte-identical
// to the -nofastpath reference loop. These tests run the same guest code
// both ways and compare everything observable.

// normStats zeroes the counter that intentionally differs between modes
// (it counts fast-path activity, which the reference loop has none of).
func normStats(s Stats) Stats {
	s.SuperblockIns = 0
	return s
}

func normCacheStats(s jit.CacheStats) jit.CacheStats {
	s.LinkHits, s.LinkMisses, s.LinkInvalidations = 0, 0, 0
	return s
}

// fastModeState is everything observable after running a program in one
// mode, for exact comparison against the other mode.
type fastModeState struct {
	k *kernel.Kernel
	p *kernel.Proc
	e *Engine
}

func setupMode(t *testing.T, src string, kcfg kernel.Config, cost CostModel, instrument func(*Engine)) fastModeState {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	prog.LoadInto(m)
	regs := cpu.Regs{PC: prog.Entry}
	regs.R[isa.RegSP] = 0x00f0_0000
	k := kernel.New(kcfg)
	e := NewEngine(cost)
	if instrument != nil {
		instrument(e)
	}
	p := k.Spawn("t", m, regs, e)
	return fastModeState{k: k, p: p, e: e}
}

// compareModes asserts that the fast and reference runs agree on every
// virtual outcome: registers, accounting, engine and cache statistics.
func compareModes(t *testing.T, fastS, slow fastModeState) {
	t.Helper()
	fp, sp := fastS.p, slow.p
	if fp.Regs != sp.Regs {
		t.Errorf("registers diverged:\nfast %+v\nslow %+v", fp.Regs, sp.Regs)
	}
	if fp.InsCount != sp.InsCount {
		t.Errorf("InsCount: fast %d, slow %d", fp.InsCount, sp.InsCount)
	}
	if fp.ExitCode != sp.ExitCode {
		t.Errorf("ExitCode: fast %d, slow %d", fp.ExitCode, sp.ExitCode)
	}
	if fp.CPUTime != sp.CPUTime {
		t.Errorf("CPUTime: fast %d, slow %d", fp.CPUTime, sp.CPUTime)
	}
	if fp.EndTime != sp.EndTime {
		t.Errorf("EndTime: fast %d, slow %d", fp.EndTime, sp.EndTime)
	}
	if fp.CowCost != sp.CowCost {
		t.Errorf("CowCost: fast %d, slow %d", fp.CowCost, sp.CowCost)
	}
	if fp.SyscallCount != sp.SyscallCount {
		t.Errorf("SyscallCount: fast %d, slow %d", fp.SyscallCount, sp.SyscallCount)
	}
	if fs, ss := normStats(fastS.e.Stats()), normStats(slow.e.Stats()); fs != ss {
		t.Errorf("engine stats diverged:\nfast %+v\nslow %+v", fs, ss)
	}
	if fc, sc := normCacheStats(fastS.e.CacheStats()), normCacheStats(slow.e.CacheStats()); fc != sc {
		t.Errorf("cache stats diverged:\nfast %+v\nslow %+v", fc, sc)
	}
}

// runBoth runs src to completion under the kernel scheduler in both
// modes and compares the outcomes. The returned fast-mode state lets
// callers assert that the fast paths actually engaged.
func runBoth(t *testing.T, src string, mutate func(*kernel.Config, *CostModel), instrument func(*Engine)) fastModeState {
	t.Helper()
	kcfg := kernel.DefaultConfig()
	kcfg.MaxCycles = 2_000_000_000
	cost := DefaultCost()
	if mutate != nil {
		mutate(&kcfg, &cost)
	}
	slowCost := cost
	slowCost.NoFastPath = true

	fastS := setupMode(t, src, kcfg, cost, instrument)
	if err := fastS.k.Run(); err != nil {
		t.Fatal(err)
	}
	slow := setupMode(t, src, kcfg, slowCost, instrument)
	if err := slow.k.Run(); err != nil {
		t.Fatal(err)
	}
	compareModes(t, fastS, slow)
	return fastS
}

func TestFastPathDifferentialUninstrumented(t *testing.T) {
	fastS := runBoth(t, testSrc, func(kcfg *kernel.Config, cost *CostModel) {
		// A prime quantum lands budget stops at awkward mid-run points,
		// and a memory surcharge makes the cumulative-cost array uneven.
		kcfg.Cost.Quantum = 7919
		cost.MemSurcharge = 3
	}, nil)
	st := fastS.e.Stats()
	if st.SuperblockIns == 0 {
		t.Error("superblock fast path never engaged on uninstrumented code")
	}
	if fastS.e.CacheStats().LinkHits == 0 {
		t.Error("trace linking never engaged on a loopy workload")
	}
}

func TestFastPathDifferentialIcount2(t *testing.T) {
	// Per-basic-block instrumentation: call sites at block heads leave
	// call-free tails, so superblocks and calls interleave within traces.
	var fastN, slowN uint64
	ns := []*uint64{&fastN, &slowN}
	i := 0
	fastS := runBoth(t, testSrc, nil, func(e *Engine) {
		n := ns[i]
		i++
		e.AddTraceInstrumenter(func(tr *Trace) {
			for _, bbl := range tr.Bbls() {
				c := uint64(bbl.NumIns())
				bbl.InsertCall(Before, func(*Ctx) { *n += c })
			}
		})
	})
	if fastN != slowN {
		t.Errorf("tool counts diverged: fast %d, slow %d", fastN, slowN)
	}
	if fastN != fastS.p.InsCount {
		t.Errorf("icount2 counted %d, executed %d", fastN, fastS.p.InsCount)
	}
	if fastS.e.Stats().SuperblockIns == 0 {
		t.Error("superblock fast path never engaged between block-head calls")
	}
}

func TestFastPathDifferentialIcount1(t *testing.T) {
	// Per-instruction instrumentation leaves no call-free runs at all:
	// the superblock path must stay out of the way entirely while trace
	// linking still works.
	var fastN, slowN uint64
	ns := []*uint64{&fastN, &slowN}
	i := 0
	fastS := runBoth(t, testSrc, nil, func(e *Engine) {
		n := ns[i]
		i++
		e.AddTraceInstrumenter(func(tr *Trace) {
			for _, bbl := range tr.Bbls() {
				for _, ins := range bbl.Ins() {
					ins.InsertCall(Before, func(*Ctx) { *n++ })
				}
			}
		})
	})
	if fastN != slowN {
		t.Errorf("tool counts diverged: fast %d, slow %d", fastN, slowN)
	}
	if st := fastS.e.Stats(); st.SuperblockIns != 0 {
		t.Errorf("superblock path executed %d instructions of fully instrumented code", st.SuperblockIns)
	}
	if fastS.e.CacheStats().LinkHits == 0 {
		t.Error("trace linking never engaged")
	}
}

func TestFastPathDifferentialSmallCache(t *testing.T) {
	// A small code cache forces flushes and recompilation; link state
	// must die with each cache generation without disturbing results.
	fastS := runBoth(t, testSrc, func(_ *kernel.Config, cost *CostModel) {
		cost.CacheCapacity = 24
	}, nil)
	if fastS.e.CacheStats().Flushes == 0 {
		t.Fatal("test expects cache flushes; raise testSrc size or lower capacity")
	}
}

// limitLoop is syscall-free until exit so single Run calls can be driven
// with precise budgets and instruction limits.
const limitLoop = `
	li r10, 0
	li r11, 100000
loop:
	addi r10, r10, 1
	add r12, r12, r10
	xor r13, r13, r12
	blt r10, r11, loop
	li r1, 1
	syscall
`

// limitTools are the instrumenters the single-Run stop tests cover:
// none, and the inline-add counters, whose superblocks stop mid-run.
var limitTools = []struct {
	name string
	mk   func(*uint64) func(*Engine)
}{
	{"uninstrumented", func(*uint64) func(*Engine) { return nil }},
	{"icount1", inlineIcount1},
	{"icount2", inlineIcount2},
}

func TestFastPathInsLimitExact(t *testing.T) {
	// InsLimit must pause at exactly the requested instruction count —
	// SuperPin's deterministic thread replay depends on it — including
	// limits that land mid-superblock.
	for _, tool := range limitTools {
		for _, limit := range []uint64{1, 2, 5, 777, 4000} {
			var states []fastModeState
			var used [2]kernel.Cycles
			var counts [2]uint64
			for i, nofast := range []bool{false, true} {
				cost := DefaultCost()
				cost.NoFastPath = nofast
				kcfg := kernel.DefaultConfig()
				s := setupMode(t, limitLoop, kcfg, cost, tool.mk(&counts[i]))
				s.e.InsLimit = limit
				var stop kernel.StopReason
				used[i], stop = s.e.Run(s.k, s.p, 1<<40)
				if stop != kernel.StopBudget {
					t.Fatalf("%s limit %d nofast=%v: stop %v", tool.name, limit, nofast, stop)
				}
				if s.p.InsCount != limit {
					t.Errorf("%s limit %d nofast=%v: stopped at %d instructions", tool.name, limit, nofast, s.p.InsCount)
				}
				if used[i] == 0 {
					t.Errorf("%s limit %d nofast=%v: no cycles charged", tool.name, limit, nofast)
				}
				states = append(states, s)
			}
			if states[0].p.Regs != states[1].p.Regs {
				t.Errorf("%s limit %d: registers diverged", tool.name, limit)
			}
			if used[0] != used[1] || counts[0] != counts[1] {
				t.Errorf("%s limit %d: fast used %d count %d, slow used %d count %d",
					tool.name, limit, used[0], counts[0], used[1], counts[1])
			}
			if fs, ss := normStats(states[0].e.Stats()), normStats(states[1].e.Stats()); fs != ss {
				t.Errorf("%s limit %d: stats diverged:\nfast %+v\nslow %+v", tool.name, limit, fs, ss)
			}
		}
	}
}

func TestFastPathBudgetStopExact(t *testing.T) {
	// Single Run calls with assorted budgets: used cycles, stop PC,
	// instruction counts, tool counters and engine statistics must match
	// the reference loop exactly, including on resumption mid-superblock
	// after a budget stop.
	for _, tool := range limitTools {
		for _, budget := range []kernel.Cycles{1, 2, 3, 50, 997, 12345} {
			var used [2]kernel.Cycles
			var counts [2]uint64
			var states []fastModeState
			for i, nofast := range []bool{false, true} {
				cost := DefaultCost()
				cost.NoFastPath = nofast
				s := setupMode(t, limitLoop, kernel.DefaultConfig(), cost, tool.mk(&counts[i]))
				u1, stop := s.e.Run(s.k, s.p, budget)
				if stop != kernel.StopBudget {
					t.Fatalf("%s budget %d nofast=%v: stop %v", tool.name, budget, nofast, stop)
				}
				// Resume once: the fast engine re-enters mid-trace, mid-run.
				u2, stop := s.e.Run(s.k, s.p, budget)
				if stop != kernel.StopBudget {
					t.Fatalf("%s budget %d nofast=%v resume: stop %v", tool.name, budget, nofast, stop)
				}
				used[i] = u1 + u2
				states = append(states, s)
			}
			f, s := states[0], states[1]
			if used[0] != used[1] {
				t.Errorf("%s budget %d: used fast %d, slow %d", tool.name, budget, used[0], used[1])
			}
			if f.p.Regs != s.p.Regs {
				t.Errorf("%s budget %d: registers diverged (fast PC %#x, slow PC %#x)",
					tool.name, budget, f.p.Regs.PC, s.p.Regs.PC)
			}
			if f.p.InsCount != s.p.InsCount {
				t.Errorf("%s budget %d: InsCount fast %d, slow %d", tool.name, budget, f.p.InsCount, s.p.InsCount)
			}
			if counts[0] != counts[1] {
				t.Errorf("%s budget %d: count fast %d, slow %d", tool.name, budget, counts[0], counts[1])
			}
			if fs, ss := normStats(f.e.Stats()), normStats(s.e.Stats()); fs != ss {
				t.Errorf("%s budget %d: stats diverged:\nfast %+v\nslow %+v", tool.name, budget, fs, ss)
			}
		}
	}
}

func TestFastPathFlushCacheClearsLinks(t *testing.T) {
	// FlushCache between Run calls must drop staged link state; execution
	// continues correctly via recompilation and results still match.
	var states []fastModeState
	for _, nofast := range []bool{false, true} {
		cost := DefaultCost()
		cost.NoFastPath = nofast
		s := setupMode(t, limitLoop, kernel.DefaultConfig(), cost, nil)
		var total kernel.Cycles
		for i := 0; i < 20; i++ {
			u, stop := s.e.Run(s.k, s.p, 500)
			total += u
			if stop != kernel.StopBudget {
				t.Fatalf("nofast=%v iter %d: stop %v", nofast, i, stop)
			}
			s.e.FlushCache()
		}
		states = append(states, s)
	}
	if states[0].p.Regs != states[1].p.Regs {
		t.Error("registers diverged across FlushCache")
	}
	if states[0].p.InsCount != states[1].p.InsCount {
		t.Errorf("InsCount diverged: fast %d, slow %d", states[0].p.InsCount, states[1].p.InsCount)
	}
}

// sealFastPaths precomputes a trace's superblock index without a static
// analysis attached — the reference sealing path.
func sealFastPaths(ct *jit.CompiledTrace, cost CostModel) {
	(&Engine{Cost: cost}).seal(ct)
}

func TestSealFastPathsStructure(t *testing.T) {
	// Compile testSrc's entry trace uninstrumented and check the seal
	// pass's invariants directly: runs cover exactly the call-free,
	// syscall-free instructions, predecode matches, and Cum is coherent.
	prog, err := asm.Assemble(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	prog.LoadInto(m)
	tr, err := jit.BuildTrace(m, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	ct := jit.Compile(tr)
	// Instrument one instruction in the middle to split a run.
	mid := len(ct.Ins) / 2
	ct.Calls = []jit.Call{{Fn: func(*jit.Ctx) {}}}
	for i := mid; i < len(ct.Ins); i++ {
		ct.Ins[i].B0, ct.Ins[i].B1, ct.Ins[i].A1 = 1, 1, 1
	}
	ct.Ins[mid].B0 = 0
	cost := DefaultCost()
	cost.MemSurcharge = 7
	sealFastPaths(ct, cost)

	if ct.RunAt == nil {
		t.Fatal("no superblocks sealed")
	}
	if got := ct.RunAt[mid]; got != -1 {
		t.Errorf("instrumented instruction assigned to run %d", got)
	}
	covered := 0
	for i, ri := range ct.RunAt {
		if ri < 0 {
			continue
		}
		covered++
		sb := &ct.Sblocks[ri]
		off := i - sb.Start
		if off < 0 || off >= len(sb.Block) {
			t.Fatalf("ins %d maps outside its run", i)
		}
		if sb.Block[off].Inst != ct.Ins[i].Inst {
			t.Errorf("ins %d: predecoded instruction mismatch", i)
		}
		if want := ct.Ins[i].Addr + isa.WordSize; sb.Block[off].Next != want {
			t.Errorf("ins %d: Next %#x, want %#x", i, sb.Block[off].Next, want)
		}
		var prev uint64
		if off > 0 {
			prev = sb.Cum[off-1]
		}
		step := uint64(cost.Exec)
		if ct.Ins[i].Inst.Op.IsMem() {
			step += uint64(cost.MemSurcharge)
		}
		if sb.Cum[off]-prev != step {
			t.Errorf("ins %d: cum step %d, want %d", i, sb.Cum[off]-prev, step)
		}
	}
	if covered == 0 {
		t.Fatal("no instructions covered by runs")
	}
	for ri := range ct.Sblocks {
		sb := &ct.Sblocks[ri]
		if len(sb.Block) < minSuperblockIns {
			t.Errorf("run %d has %d instructions, below minimum %d", ri, len(sb.Block), minSuperblockIns)
		}
		if len(sb.Block) != len(sb.Cum) {
			t.Errorf("run %d: Block/Cum length mismatch", ri)
		}
	}
}
