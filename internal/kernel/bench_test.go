package kernel

import (
	"testing"

	"superpin/internal/asm"
	"superpin/internal/cpu"
	"superpin/internal/isa"
	"superpin/internal/mem"
)

// benchLoop is a loop long enough that b.N instructions can be
// interpreted without the process exiting.
const benchLoop = `
	li r10, 0
	li r11, 2000000000
loop:
	addi r10, r10, 1
	add r12, r12, r10
	blt r10, r11, loop
	li r1, 1
	syscall
`

// benchStoreLoop is benchLoop with a load and a store per iteration,
// striding over the 16 pages at 0x200000.
const benchStoreLoop = `
	li r10, 0
	li r11, 2000000000
	li r13, 0x00200000
loop:
	addi r10, r10, 1
	andi r12, r10, 15
	slli r12, r12, 12
	add r12, r12, r13
	sw r10, (r12)
	lw r14, 4(r12)
	blt r10, r11, loop
	li r1, 1
	syscall
`

// benchProg loads src and returns the image and entry registers.
func benchProg(b *testing.B, src string) (*mem.Memory, cpu.Regs) {
	b.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	m := mem.New()
	p.LoadInto(m)
	regs := cpu.Regs{PC: p.Entry}
	regs.R[isa.RegSP] = 0x00f0_0000
	return m, regs
}

// BenchmarkNativeInterp measures raw interpreter throughput through the
// kernel's NativeRunner, one cpu.Step per instruction. "alu" runs one
// unbounded budget of register arithmetic. "surcharge-cow" charges
// MemSurcharge 3 and runs quantum-sized budgets over pages shared with a
// forked sibling, re-forked every 1000 budgets, so stores keep copying
// pages.
func BenchmarkNativeInterp(b *testing.B) {
	b.Run("alu", func(b *testing.B) {
		k := New(DefaultConfig())
		m, regs := benchProg(b, benchLoop)
		r := NativeRunner{}
		p := k.Spawn("bench", m, regs, r)
		b.ResetTimer()
		for p.InsCount < uint64(b.N) {
			if _, stop := r.Run(k, p, Cycles(b.N)-Cycles(p.InsCount)); stop == StopError {
				b.Fatal(p.Err)
			}
		}
		b.ReportMetric(float64(p.InsCount)/b.Elapsed().Seconds(), "guest-ins/s")
	})
	b.Run("surcharge-cow", func(b *testing.B) {
		k := New(DefaultConfig())
		m, regs := benchProg(b, benchStoreLoop)
		for i := uint32(0); i < 16; i++ {
			m.StoreWord(0x0020_0000+i*mem.PageSize, i)
		}
		r := NativeRunner{MemSurcharge: 3}
		p := k.Spawn("bench", m, regs, r)
		quantum := k.Config().Cost.Quantum
		b.ResetTimer()
		var sibling *Proc
		for calls := 0; p.InsCount < uint64(b.N); calls++ {
			if calls%1000 == 0 {
				if sibling != nil {
					k.Exit(sibling, 0)
				}
				sibling = k.Fork(p, "sibling", r, false)
			}
			if _, stop := r.Run(k, p, quantum); stop == StopError {
				b.Fatal(p.Err)
			}
		}
		b.ReportMetric(float64(p.InsCount)/b.Elapsed().Seconds(), "guest-ins/s")
		b.ReportMetric(float64(p.CowCost/k.Config().Cost.PageCopy)/float64(p.InsCount)*1e6, "copies/Mins")
	})
}

// BenchmarkScheduler8Procs measures full discrete-event scheduling
// overhead with 8 concurrent CPU-bound processes on 8 cores.
func BenchmarkScheduler8Procs(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Hyperthreading = false
	cfg.MaxCycles = Cycles(b.N)*8 + 1_000_000
	k := New(cfg)
	for i := 0; i < 8; i++ {
		m, regs := benchProg(b, benchLoop)
		k.Spawn("w", m, regs, NativeRunner{})
	}
	b.ResetTimer()
	quantum := cfg.Cost.Quantum
	var total uint64
	for total < uint64(b.N) {
		k.fireTimers()
		k.runQuantum()
		k.Now += quantum
		total = 0
		for _, p := range k.Procs() {
			total += p.InsCount
		}
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "guest-ins/s")
}
