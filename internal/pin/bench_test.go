package pin

import (
	"fmt"
	"strings"
	"testing"

	"superpin/internal/asm"
	"superpin/internal/cpu"
	"superpin/internal/isa"
	"superpin/internal/kernel"
	"superpin/internal/mem"
)

// benchLoop is a tight guest loop for engine-throughput benchmarks.
const benchLoop = `
	li r10, 0
	li r11, 1000000000
loop:
	addi r10, r10, 1
	add r12, r12, r10
	xor r13, r13, r12
	slli r14, r10, 3
	blt r10, r11, loop
	li r1, 1
	syscall
`

// benchHops is a dispatch-heavy guest loop: a chain of a few hundred
// two-instruction blocks, each ending in a jump, so almost all the work
// is inter-trace transfer and the code cache holds a realistic number of
// traces. It isolates the cost of dispatch itself — the trace-linking
// benchmarks' subject.
var benchHops = func() string {
	const hops = 300
	var b strings.Builder
	b.WriteString("\tli r10, 0\n\tli r11, 1000000000\nloop:\n\taddi r10, r10, 1\n\tj h0\n")
	for i := 0; i < hops; i++ {
		fmt.Fprintf(&b, "h%d:\n\tadd r12, r12, r10\n", i)
		if i < hops-1 {
			fmt.Fprintf(&b, "\tj h%d\n", i+1)
		}
	}
	b.WriteString("\tblt r10, r11, loop\n\tli r1, 1\n\tsyscall\n")
	return b.String()
}()

// setupEngine spawns src under an engine and returns proc + kernel.
func setupEngine(b *testing.B, src string, instrument func(*Engine)) (*kernel.Kernel, *kernel.Proc, *Engine) {
	b.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	m := mem.New()
	p.LoadInto(m)
	regs := cpu.Regs{PC: p.Entry}
	regs.R[isa.RegSP] = 0x00f0_0000
	cfg := kernel.DefaultConfig()
	k := kernel.New(cfg)
	e := NewEngine(DefaultCost())
	if instrument != nil {
		instrument(e)
	}
	proc := k.Spawn("bench", m, regs, e)
	return k, proc, e
}

// runN drives the engine directly for b.N guest instructions and reports
// host-side throughput.
func runN(b *testing.B, e *Engine, k *kernel.Kernel, p *kernel.Proc) {
	b.Helper()
	b.ResetTimer()
	remaining := uint64(b.N)
	for remaining > 0 {
		// Budgets are in cycles; one instruction costs at least one.
		used, stop := e.Run(k, p, kernel.Cycles(remaining))
		if stop == kernel.StopError {
			b.Fatal(p.Err)
		}
		if used == 0 {
			b.Fatal("engine made no progress")
		}
		if p.InsCount >= uint64(b.N) {
			break
		}
		remaining = uint64(b.N) - p.InsCount
	}
	b.ReportMetric(float64(p.InsCount)/b.Elapsed().Seconds(), "guest-ins/s")
}

func BenchmarkEngineUninstrumented(b *testing.B) {
	k, p, e := setupEngine(b, benchLoop, nil)
	runN(b, e, k, p)
}

// BenchmarkEngineUninstrumentedNoFastPath is the reference loop on the
// same workload: the ratio to BenchmarkEngineUninstrumented is the
// superblock fast path's speedup.
func BenchmarkEngineUninstrumentedNoFastPath(b *testing.B) {
	k, p, e := setupEngine(b, benchLoop, func(e *Engine) { e.Cost.NoFastPath = true })
	runN(b, e, k, p)
}

// BenchmarkEngineDispatchLinked measures inter-trace transfer cost with
// trace linking on: the hop chain re-dispatches every few instructions,
// each resolved through the per-trace successor cache.
func BenchmarkEngineDispatchLinked(b *testing.B) {
	k, p, e := setupEngine(b, benchHops, nil)
	runN(b, e, k, p)
}

// BenchmarkEngineDispatchUnlinked is the same hop chain through the
// dispatcher's map lookup on every transfer.
func BenchmarkEngineDispatchUnlinked(b *testing.B) {
	k, p, e := setupEngine(b, benchHops, func(e *Engine) { e.Cost.NoFastPath = true })
	runN(b, e, k, p)
}

// BenchmarkEngineIcount1Style is icount1 as the tool ships it: an inline
// add before every instruction, which superblocks run through.
func BenchmarkEngineIcount1Style(b *testing.B) {
	var n uint64
	k, p, e := setupEngine(b, benchLoop, inlineIcount1(&n))
	runN(b, e, k, p)
}

// BenchmarkEngineIcount1StyleNoFastPath runs the same adds one by one
// through the reference loop, so the delta to BenchmarkEngineIcount1Style
// is what superblocks and trace linking buy on a fully instrumented
// workload.
func BenchmarkEngineIcount1StyleNoFastPath(b *testing.B) {
	var n uint64
	k, p, e := setupEngine(b, benchLoop, func(e *Engine) {
		e.Cost.NoFastPath = true
		inlineIcount1(&n)(e)
	})
	runN(b, e, k, p)
}

// BenchmarkEngineIcount1Closure is icount1 through a closure call per
// instruction, the opaque call kind no superblock runs through.
func BenchmarkEngineIcount1Closure(b *testing.B) {
	var n uint64
	k, p, e := setupEngine(b, benchLoop, func(e *Engine) {
		e.AddTraceInstrumenter(func(tr *Trace) {
			for _, bbl := range tr.Bbls() {
				for _, ins := range bbl.Ins() {
					ins.InsertCall(Before, func(*Ctx) { n++ })
				}
			}
		})
	})
	runN(b, e, k, p)
}

// BenchmarkEngineIcount2Style is icount2 as the tool ships it: an inline
// add of the block's size at every block head.
func BenchmarkEngineIcount2Style(b *testing.B) {
	var n uint64
	k, p, e := setupEngine(b, benchLoop, inlineIcount2(&n))
	runN(b, e, k, p)
}

// BenchmarkEngineIcount2StyleNoFastPath is the reference loop on the same
// block-head adds.
func BenchmarkEngineIcount2StyleNoFastPath(b *testing.B) {
	var n uint64
	k, p, e := setupEngine(b, benchLoop, func(e *Engine) {
		e.Cost.NoFastPath = true
		inlineIcount2(&n)(e)
	})
	runN(b, e, k, p)
}

// boundaryProbe is the SuperPin boundary-check shape: one inlined
// predicate on every basic-block head, with the block tails left
// uninstrumented.
func boundaryProbe(n *uint64) func(*Engine) {
	return func(e *Engine) {
		e.AddTraceInstrumenter(func(tr *Trace) {
			for _, bbl := range tr.Bbls() {
				bbl.InsHead().InsertIfCall(Before, func(*Ctx) bool {
					*n++
					return false
				})
			}
		})
	}
}

func BenchmarkEngineIfcallProbe(b *testing.B) {
	var n uint64
	k, p, e := setupEngine(b, benchLoop, boundaryProbe(&n))
	runN(b, e, k, p)
}

func BenchmarkEngineIfThenDetectionStyle(b *testing.B) {
	// The SuperPin detection pattern: an inlined predicate at one hot PC.
	k, p, e := setupEngine(b, benchLoop, func(e *Engine) {
		e.AddTraceInstrumenter(func(tr *Trace) {
			for _, bbl := range tr.Bbls() {
				for _, ins := range bbl.Ins() {
					if ins.Inst().Op != isa.OpBLT {
						continue
					}
					ins.InsertIfCall(Before, func(c *Ctx) bool {
						return c.Regs.R[10] == 0xffffffff
					})
					ins.InsertThenCall(Before, func(*Ctx) {})
				}
			}
		})
	})
	runN(b, e, k, p)
}
