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

// runToExit drives a program to completion under an engine inside a
// kernel, returning the proc.
func runToExit(t *testing.T, src string, setup func(*Engine)) (*kernel.Proc, *Engine) {
	t.Helper()
	return runFrom(t, src, 0, setup)
}

// runFrom is runToExit on a kernel whose clock starts at start, so that
// a trace cache has published every translation recorded in it at
// earlier times to the engine.
func runFrom(t *testing.T, src string, start kernel.Cycles, setup func(*Engine)) (*kernel.Proc, *Engine) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	p.LoadInto(m)
	regs := cpu.Regs{PC: p.Entry}
	regs.R[isa.RegSP] = 0x00f0_0000
	cfg := kernel.DefaultConfig()
	cfg.MaxCycles = 1_000_000_000
	k := kernel.New(cfg)
	k.Now = start
	e := NewEngine(DefaultCost())
	if setup != nil {
		setup(e)
	}
	proc := k.Spawn("t", m, regs, e)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return proc, e
}

const tinyLoop = `
	li r10, 0
	li r11, 500
loop:
	addi r10, r10, 1
	blt r10, r11, loop
	li r1, 1
	li r2, 0
	syscall
`

func TestSplitPCMakesBoundaryALeader(t *testing.T) {
	p, err := asm.Assemble(tinyLoop)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	p.LoadInto(m)
	// The loop body is [entry+8, entry+12]; split inside it.
	split := p.Entry + 12
	tr, err := jit.BuildTraceSplit(m, p.Entry, split)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range tr.Bbls {
		for i := 1; i < b.NumIns(); i++ {
			if b.InsAddr(i) == split {
				t.Fatalf("split address %#x is not a block leader", split)
			}
		}
	}
	// A trace built at the split must exist independently.
	tr2, err := jit.BuildTraceSplit(m, split, split)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Addr != split {
		t.Fatalf("trace at split starts at %#x", tr2.Addr)
	}
}

func TestAfterStopRequestStopsBeforeNextInstruction(t *testing.T) {
	var stopAt uint32
	count := 0
	proc, _ := runToExit(t, tinyLoop, func(e *Engine) {
		e.AddTraceInstrumenter(func(tr *Trace) {
			for _, bbl := range tr.Bbls() {
				for _, ins := range bbl.Ins() {
					ins.InsertCall(After, func(c *Ctx) {
						count++
						if count == 100 {
							stopAt = c.Regs.PC // already-advanced PC
							c.RequestStop()
						}
					})
				}
			}
		})
	})
	if count != 100 {
		t.Fatalf("after-calls ran %d times", count)
	}
	if proc.InsCount != 100 {
		t.Fatalf("executed %d instructions, want 100 (stop after the 100th)", proc.InsCount)
	}
	if proc.Regs.PC != stopAt {
		t.Fatalf("PC = %#x, want %#x", proc.Regs.PC, stopAt)
	}
}

// TestSharedTraceCacheAcrossEngines: an engine that starts after
// another finished sees every translation the first one built, and
// counts its own lookups. Its counter areas are laid out differently,
// which stops code adoption but not the sharing of translations.
func TestSharedTraceCacheAcrossEngines(t *testing.T) {
	shared := jit.NewTraceCache()
	_, first := runFrom(t, tinyLoop, 0, func(e *Engine) { e.UseCache(shared, 1, nil, true) })
	_, second := runFrom(t, tinyLoop, 1_000_000, func(e *Engine) {
		e.UseCache(shared, 2, [][]uint64{make([]uint64, 2)}, true)
	})
	if second.shareCode {
		t.Fatal("an engine with another counter layout shares code")
	}
	if first.sharedHits != 0 || first.sharedMisses != first.CacheStats().Misses {
		t.Fatalf("first engine: %d hits, %d misses, %d local misses",
			first.sharedHits, first.sharedMisses, first.CacheStats().Misses)
	}
	if second.sharedHits != second.CacheStats().Misses || second.sharedMisses != 0 {
		t.Fatalf("second engine: %d hits, %d misses, %d local misses: translations not shared",
			second.sharedHits, second.sharedMisses, second.CacheStats().Misses)
	}
}

func TestSharedCacheRespectsSplitPC(t *testing.T) {
	p, err := asm.Assemble(tinyLoop)
	if err != nil {
		t.Fatal(err)
	}
	shared := jit.NewTraceCache()

	// First engine publishes unsplit traces.
	m1 := mem.New()
	p.LoadInto(m1)
	tr, err := jit.BuildTrace(m1, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	shared.Insert(tr)
	split := p.Entry + 12
	if !tr.ContainsBeyondHead(split) {
		t.Fatalf("test setup: %#x not inside the shared trace", split)
	}

	// An engine with that split must not adopt the shared trace; its
	// compiled trace must end before the split.
	m2 := mem.New()
	p.LoadInto(m2)
	regs := cpu.Regs{PC: p.Entry}
	regs.R[isa.RegSP] = 0x00f0_0000
	cfg := kernel.DefaultConfig()
	cfg.MaxCycles = 1_000_000_000
	k := kernel.New(cfg)
	e := NewEngine(DefaultCost())
	e.UseCache(shared, 1, nil, true)
	e.SplitPC = split
	var bblStarts []uint32
	e.AddTraceInstrumenter(func(tr *Trace) {
		for _, bbl := range tr.Bbls() {
			bblStarts = append(bblStarts, bbl.Addr())
			for i := 1; i < bbl.NumIns(); i++ {
				if bbl.Addr()+uint32(4*i) == split {
					t.Errorf("split %#x compiled mid-block", split)
				}
			}
		}
	})
	k.Spawn("t", m2, regs, e)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range bblStarts {
		if a == split {
			found = true
		}
	}
	if !found {
		t.Fatal("split address never became a block leader")
	}
}

func TestEngineSurvivesCacheFlushMidTrace(t *testing.T) {
	// A capacity-1-trace cache forces a flush on every compile; the
	// engine's current-trace pointer must remain valid. The capacity must
	// hold tinyLoop's largest trace (7 instructions) but not two traces,
	// since a single trace exceeding the whole capacity is now admitted
	// capacity-exempt and would never trigger a flush.
	cost := DefaultCost()
	cost.CacheCapacity = 8
	p, err := asm.Assemble(tinyLoop)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	p.LoadInto(m)
	regs := cpu.Regs{PC: p.Entry}
	regs.R[isa.RegSP] = 0x00f0_0000
	cfg := kernel.DefaultConfig()
	cfg.MaxCycles = 2_000_000_000
	k := kernel.New(cfg)
	e := NewEngine(cost)
	proc := k.Spawn("t", m, regs, e)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !proc.Exited() || proc.ExitCode != 0 {
		t.Fatalf("state %v code %d", proc.State, proc.ExitCode)
	}
	if e.CacheStats().Flushes == 0 {
		t.Fatal("no flushes despite tiny capacity")
	}
}
