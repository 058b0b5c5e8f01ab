package pin

import (
	"fmt"
	"strings"
	"testing"

	"superpin/internal/isa"
	"superpin/internal/jit"
	"superpin/internal/kernel"
)

// Inline counter adds (InsertInlineAdd) let superblocks run through
// instrumented instructions and settle the counter once per run. These
// tests hold the fast path to the reference loop on everything
// observable: counters, engine Stats, cycles and CPUTime.

// inlineIcount1 returns an instrumenter counting every instruction into
// *n with one inline add before it, as the icount1 tool does.
func inlineIcount1(n *uint64) func(*Engine) {
	return func(e *Engine) {
		e.AddTraceInstrumenter(func(tr *Trace) {
			for _, bbl := range tr.Bbls() {
				for _, ins := range bbl.Ins() {
					ins.InsertInlineAdd(Before, n, 1)
				}
			}
		})
	}
}

// inlineIcount2 returns an instrumenter counting every block's size into
// *n with one inline add at its head, as the icount2 tool does.
func inlineIcount2(n *uint64) func(*Engine) {
	return func(e *Engine) {
		e.AddTraceInstrumenter(func(tr *Trace) {
			for _, bbl := range tr.Bbls() {
				bbl.InsertInlineAdd(Before, n, uint64(bbl.NumIns()))
			}
		})
	}
}

// countingTools are the inline-add instrumenters every test here runs.
var countingTools = []struct {
	name string
	mk   func(n *uint64) func(*Engine)
}{
	{"icount1", inlineIcount1},
	{"icount2", inlineIcount2},
}

// runBothCounting is runBoth with a counting instrumenter; it returns the
// fast-mode state and each mode's count.
func runBothCounting(t *testing.T, src string, mutate func(*kernel.Config, *CostModel), mk func(*uint64) func(*Engine)) (fastModeState, uint64, uint64) {
	t.Helper()
	var ns [2]uint64
	i := 0
	fastS := runBoth(t, src, mutate, func(e *Engine) {
		mk(&ns[i])(e)
		i++
	})
	if ns[0] != ns[1] {
		t.Errorf("counts diverged: fast %d, slow %d", ns[0], ns[1])
	}
	return fastS, ns[0], ns[1]
}

func TestFastPathDifferentialInlineAdds(t *testing.T) {
	for _, tool := range countingTools {
		t.Run(tool.name, func(t *testing.T) {
			fastS, n, _ := runBothCounting(t, testSrc, func(kcfg *kernel.Config, cost *CostModel) {
				kcfg.Cost.Quantum = 7919
				cost.MemSurcharge = 3
			}, tool.mk)
			if n != fastS.p.InsCount {
				t.Errorf("counted %d, executed %d", n, fastS.p.InsCount)
			}
			st := fastS.e.Stats()
			if st.SuperblockIns*20 < st.ExecIns*19 {
				t.Errorf("superblocks retired %d of %d instructions, want >= 95%%", st.SuperblockIns, st.ExecIns)
			}
		})
	}
}

// runStep is what one Run call leaves behind, for step-by-step
// comparison of the two modes.
type runStep struct {
	used  kernel.Cycles
	stop  kernel.StopReason
	ins   uint64
	pc    uint32
	count uint64
	stats Stats
}

// stepRuns drives src through steps Run calls of budget cycles each,
// recording every step.
func stepRuns(t *testing.T, src string, nofast bool, budget kernel.Cycles, steps int, mk func(*uint64) func(*Engine)) []runStep {
	t.Helper()
	cost := DefaultCost()
	cost.NoFastPath = nofast
	var n uint64
	s := setupMode(t, src, kernel.DefaultConfig(), cost, mk(&n))
	var out []runStep
	for i := 0; i < steps; i++ {
		used, stop := s.e.Run(s.k, s.p, budget)
		out = append(out, runStep{used, stop, s.p.InsCount, s.p.Regs.PC, n, normStats(s.e.Stats())})
		if stop != kernel.StopBudget {
			break
		}
	}
	return out
}

func TestFastPathInlineAddBudgetEveryOffset(t *testing.T) {
	// limitLoop's body is one 4-instruction run: 44 cycles under icount1,
	// 8 under icount2. Budgets up to 100 stop at every cycle offset of
	// the entry run and of the loop run, and each resumption re-enters a
	// run mid-way.
	for _, tool := range countingTools {
		for budget := kernel.Cycles(1); budget <= 100; budget++ {
			fast := stepRuns(t, limitLoop, false, budget, 6, tool.mk)
			slow := stepRuns(t, limitLoop, true, budget, 6, tool.mk)
			if len(fast) != len(slow) {
				t.Fatalf("%s budget %d: %d steps fast, %d slow", tool.name, budget, len(fast), len(slow))
			}
			for i := range fast {
				if fast[i] != slow[i] {
					t.Fatalf("%s budget %d step %d:\nfast %+v\nslow %+v", tool.name, budget, i, fast[i], slow[i])
				}
			}
		}
	}
}

// Fault sources: a misaligned load inside a run, in the middle of a
// block and at a block head. The taken branch to its own fall-through
// keeps the run going across the block boundary.
const (
	faultMidBlock = `
	li r12, 0x00300002
	li r10, 0
	addi r10, r10, 1
	addi r10, r10, 1
	lw r11, (r12)
	addi r10, r10, 1
	li r1, 1
	syscall
`
	faultAtBlockHead = `
	li r12, 0x00300002
	li r10, 0
	addi r10, r10, 1
	bne r10, r0, next
next:
	lw r11, (r12)
	addi r10, r10, 1
	li r1, 1
	syscall
`
)

func TestFastPathInlineAddFault(t *testing.T) {
	// The reference loop runs a faulting instruction's Before calls
	// before it faults; the fast path must settle them too.
	for _, src := range []string{faultMidBlock, faultAtBlockHead} {
		for _, tool := range countingTools {
			var states [2]fastModeState
			var counts [2]uint64
			var used [2]kernel.Cycles
			for i, nofast := range []bool{false, true} {
				cost := DefaultCost()
				cost.NoFastPath = nofast
				states[i] = setupMode(t, src, kernel.DefaultConfig(), cost, tool.mk(&counts[i]))
				var stop kernel.StopReason
				used[i], stop = states[i].e.Run(states[i].k, states[i].p, 1<<40)
				if stop != kernel.StopError || states[i].p.Err == nil {
					t.Fatalf("%s nofast=%v: stop %v, err %v; want a fault", tool.name, nofast, stop, states[i].p.Err)
				}
			}
			f, s := states[0], states[1]
			if f.e.Stats().SuperblockIns == 0 {
				t.Errorf("%s: the fault did not happen inside a run", tool.name)
			}
			if counts[0] != counts[1] || used[0] != used[1] || f.p.InsCount != s.p.InsCount || f.p.Regs != s.p.Regs {
				t.Errorf("%s: fast count %d used %d ins %d, slow count %d used %d ins %d",
					tool.name, counts[0], used[0], f.p.InsCount, counts[1], used[1], s.p.InsCount)
			}
			if fs, ss := normStats(f.e.Stats()), normStats(s.e.Stats()); fs != ss {
				t.Errorf("%s: stats diverged:\nfast %+v\nslow %+v", tool.name, fs, ss)
			}
			if tool.name == "icount1" && counts[0] != f.p.InsCount+1 {
				t.Errorf("icount1 counted %d, want the %d retired instructions plus the faulting one", counts[0], f.p.InsCount)
			}
		}
	}
}

// storeIntoRunSrc stores over the instruction that follows the store, in
// the middle of the trace's run, three times.
var storeIntoRunSrc = func() string {
	w, err := isa.Encode(isa.Inst{Op: isa.OpADDI, Rd: 7, Imm: 99})
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf(`
	la r5, patched
	li r6, %d
	addi r8, r0, 3
again:
	addi r9, r9, 1
	sw r6, (r5)
patched:
	addi r7, r0, 1
	addi r8, r8, -1
	bne r8, r0, again
	li r1, 1
	add r2, r7, r0
	syscall
`, w)
}()

func TestFastPathInlineAddCodeStore(t *testing.T) {
	for _, tool := range countingTools {
		t.Run(tool.name, func(t *testing.T) {
			fastS, n, _ := runBothCounting(t, storeIntoRunSrc, nil, tool.mk)
			if fastS.p.ExitCode != 99 {
				t.Errorf("exit %d, want 99: the patched instruction did not run", fastS.p.ExitCode)
			}
			if fastS.e.Stats().SuperblockIns == 0 {
				t.Error("the store did not run inside a superblock")
			}
			if tool.name == "icount1" && n != fastS.p.InsCount {
				t.Errorf("icount1 counted %d, executed %d", n, fastS.p.InsCount)
			}
		})
	}
}

// twoCounters returns an instrumenter adding each instruction to a before
// instruction cut and to b from it on.
func twoCounters(a, b *uint64, cut int) func(*Engine) {
	return func(e *Engine) {
		e.AddTraceInstrumenter(func(tr *Trace) {
			i := 0
			for _, bbl := range tr.Bbls() {
				for _, ins := range bbl.Ins() {
					ctr := a
					if i >= cut {
						ctr = b
					}
					ins.InsertInlineAdd(Before, ctr, uint64(i+1))
					i++
				}
			}
		})
	}
}

func TestSealCutsRunsAtCounterChange(t *testing.T) {
	m, pc := loadCode(t, straightLine(16))
	var a, b uint64
	e := NewEngine(DefaultCost())
	twoCounters(&a, &b, 6)(e)
	ct, _, err := e.compile(m, pc, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	// The last instruction is the syscall, which no run may hold.
	if len(ct.Sblocks) != 2 {
		t.Fatalf("%d runs, want 2", len(ct.Sblocks))
	}
	cost := e.Cost
	for r, want := range []struct {
		start, n int
		ctr      *uint64
	}{{0, 6, &a}, {6, 9, &b}} {
		sb := &ct.Sblocks[r]
		if ctr := e.ctrs[sb.Slot]; sb.Start != want.start || len(sb.Block) != want.n || sb.Adds == nil || ctr != want.ctr {
			t.Fatalf("run %d: start %d, %d instructions, counter a=%t; want start %d, %d instructions, counter a=%t",
				r, sb.Start, len(sb.Block), ctr == &a, want.start, want.n, want.ctr == &a)
		}
		var adds uint64
		for x := range sb.Block {
			i := sb.Start + x
			adds += uint64(i + 1)
			if sb.Adds[x] != adds || sb.Sites[x] != uint64(x+1) {
				t.Errorf("run %d ins %d: adds %d sites %d, want %d and %d", r, x, sb.Adds[x], sb.Sites[x], adds, x+1)
			}
			if step := uint64(cost.Exec + cost.Call); sb.Cum[x] != uint64(x+1)*step {
				t.Errorf("run %d ins %d: cum %d, want %d", r, x, sb.Cum[x], uint64(x+1)*step)
			}
		}
	}

	// An instruction adding to two counters ends every run.
	e = NewEngine(DefaultCost())
	e.AddTraceInstrumenter(func(tr *Trace) {
		for _, ins := range tr.Bbls()[0].Ins() {
			ins.InsertInlineAdd(Before, &a, 1)
		}
		tr.Bbls()[0].Ins()[3].InsertInlineAdd(After, &b, 1)
	})
	ct, _, err = e.compile(m, pc, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if ct.RunAt[3] != -1 || len(ct.Sblocks) != 2 {
		t.Errorf("instruction with two counters: run %d, %d runs; want none and 2", ct.RunAt[3], len(ct.Sblocks))
	}

	// Executed, the counters match the reference loop's.
	for _, cut := range []int{1, 3, 5} {
		var cs [4]uint64
		i := 0
		runBoth(t, testSrc, nil, func(e *Engine) {
			twoCounters(&cs[2*i], &cs[2*i+1], cut)(e)
			i++
		})
		if cs[0] != cs[2] || cs[1] != cs[3] {
			t.Errorf("cut %d: fast a=%d b=%d, slow a=%d b=%d", cut, cs[0], cs[1], cs[2], cs[3])
		}
	}
}

func TestPlaceRejectsSlabOverflow(t *testing.T) {
	m, pc := loadCode(t, straightLine(jit.MaxTraceIns))
	var n uint64
	e := NewEngine(DefaultCost())
	e.AddTraceInstrumenter(func(tr *Trace) {
		ins := tr.Bbls()[0].Ins()
		for k := 0; k <= jit.MaxTraceCalls; k++ {
			ins[k%len(ins)].InsertInlineAdd(Before, &n, 1)
		}
	})
	defer func() {
		msg := fmt.Sprint(recover())
		if want := fmt.Sprintf("%#08x", pc); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not name trace %s", msg, want)
		}
	}()
	e.compile(m, pc, 0, true)
	t.Fatal("a trace with more calls than its slab can index compiled")
}
