package pin

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"superpin/internal/asm"
	"superpin/internal/jit"
	"superpin/internal/mem"
)

// loadCode assembles src into a fresh memory image and returns it with
// the entry address.
func loadCode(tb testing.TB, src string) (*mem.Memory, uint32) {
	tb.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		tb.Fatal(err)
	}
	m := mem.New()
	p.LoadInto(m)
	return m, p.Entry
}

// straightLine is n instructions of one basic block: n-1 adds and the
// syscall that ends the trace.
func straightLine(n int) string {
	return strings.Repeat("\taddi r10, r10, 1\n", n-1) + "\tsyscall\n"
}

// multiBlock is one trace of three blocks linked by fall-through edges.
const multiBlock = `
main:
	addi r1, r1, 1
	addi r2, r2, 1
	beq r1, r2, main
	addi r3, r3, 1
	bne r1, r3, main
	addi r4, r4, 1
	addi r5, r5, 1
	syscall
`

// addIcount1 registers icount1 as the tool ships it: one inline add
// before every instruction.
func addIcount1(e *Engine) { inlineIcount1(new(uint64))(e) }

// compileBytesCeiling is the heap bytes one 64-instruction icount1
// compile may allocate: the figure measured before inline adds, when
// icount1 compiled to closure calls and sealed no superblock.
const compileBytesCeiling = 8896

// TestCompileAllocs pins the compile path's allocations for an icount1
// trace, which seals into one superblock through its inline adds: a
// constant number per trace whatever its length, at most 12, and at
// most compileBytesCeiling bytes for a full-size trace.
func TestCompileAllocs(t *testing.T) {
	var counts []float64
	var bytes uint64
	for _, n := range []int{8, jit.MaxTraceIns} {
		m, pc := loadCode(t, straightLine(n))
		e := NewEngine(DefaultCost())
		addIcount1(e)
		compile := func() {
			ct, _, err := e.compile(m, pc, 0, true)
			if err != nil || ct.NumIns() != n || len(ct.Sblocks) != 1 {
				panic(fmt.Sprintf("compile: %d instructions, %d runs, %v", ct.NumIns(), len(ct.Sblocks), err))
			}
		}
		counts = append(counts, testing.AllocsPerRun(50, compile))
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			compile()
		}
		runtime.ReadMemStats(&after)
		bytes = (after.TotalAlloc - before.TotalAlloc) / runs
	}
	t.Logf("allocations per compile %v, %d B per 64-instruction compile", counts, bytes)
	if counts[0] != counts[1] || counts[0] > 12 {
		t.Errorf("allocations per compile: %v for 8 and 64 instructions, want equal and <= 12", counts)
	}
	if bytes > compileBytesCeiling {
		t.Errorf("a 64-instruction compile allocates %d B, want <= %d", bytes, compileBytesCeiling)
	}
}

// BenchmarkCompileTrace measures one build + instrument + place + seal
// of a 64-instruction icount1 trace.
func BenchmarkCompileTrace(b *testing.B) {
	m, pc := loadCode(b, straightLine(jit.MaxTraceIns))
	e := NewEngine(DefaultCost())
	addIcount1(e)
	if _, _, err := e.compile(m, pc, 0, true); err != nil { // size the engine's scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.compile(m, pc, 0, true); err != nil {
			b.Fatal(err)
		}
	}
}

// callLog names the analysis routines a test inserts, so call lists can
// be compared by identity: each routine appends its id when run.
type callLog struct{ ids []int }

func (l *callLog) fn(id int) AnalysisFn { return func(*Ctx) { l.ids = append(l.ids, id) } }

func (l *callLog) pred(id int) PredicateFn {
	return func(*Ctx) bool { l.ids = append(l.ids, id); return false }
}

// describe renders a call list by running each routine once.
func (l *callLog) describe(calls []jit.Call) []string {
	var out []string
	for _, c := range calls {
		l.ids = l.ids[:0]
		if c.Fn != nil {
			c.Fn(nil)
		}
		if c.If != nil {
			c.If(nil)
		}
		if c.Then != nil {
			c.Then(nil)
		}
		out = append(out, fmt.Sprintf("fn=%t if=%t then=%t ids=%v add=slot%d+%d",
			c.Fn != nil, c.If != nil, c.Then != nil, l.ids, c.Slot, c.N))
	}
	return out
}

// TestPlacementMatchesDirectAppend drives random Insert* sequences —
// instructions out of order, Before and After mixed, If/Then pairs
// interleaved with other calls and inline adds — and checks every
// instruction's slab ranges against a reference that appends to each
// list directly.
func TestPlacementMatchesDirectAppend(t *testing.T) {
	m, pc := loadCode(t, multiBlock)
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		log := &callLog{}
		var ctrs [2]uint64
		var ref [][2][]jit.Call // [instruction][point]
		e := NewEngine(DefaultCost())
		e.AddTraceInstrumenter(func(tr *Trace) {
			var all []*Ins
			for _, bbl := range tr.Bbls() {
				all = append(all, bbl.Ins()...)
			}
			ref = make([][2][]jit.Call, len(all))
			for id := 0; id < 40; id++ {
				idx := rng.Intn(len(all))
				when := IPoint(rng.Intn(2))
				ins, list := all[idx], &ref[idx][when]
				switch rng.Intn(4) {
				case 0:
					ins.InsertCall(when, log.fn(id))
					*list = append(*list, jit.Call{Fn: log.fn(id)})
				case 1:
					ins.InsertIfCall(when, log.pred(id))
					*list = append(*list, jit.Call{If: log.pred(id)})
				case 2:
					j := len(*list) - 1
					for ; j >= 0; j-- {
						if c := (*list)[j]; c.If != nil && c.Then == nil && c.Fn == nil {
							break
						}
					}
					if j < 0 {
						continue // no unpaired If here; the panic has its own test
					}
					ins.InsertThenCall(when, log.fn(id))
					(*list)[j].Then = log.fn(id)
				case 3:
					ctr := &ctrs[id%len(ctrs)]
					ins.InsertInlineAdd(when, ctr, uint64(id))
					*list = append(*list, jit.Call{Slot: e.slotOf(ctr), N: uint64(id)})
				}
			}
		})
		ct, _, err := e.compile(m, pc, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		for i, ci := range ct.Ins {
			before, after := ct.Calls[ci.B0:ci.B1:ci.B1], ct.Calls[ci.B1:ci.A1:ci.A1]
			for when, got := range [2][]jit.Call{before, after} {
				want := ref[i][when]
				if g, w := log.describe(got), log.describe(want); !slices.Equal(g, w) {
					t.Fatalf("seed %d ins %d point %d:\n got %v\nwant %v", seed, i, when, g, w)
				}
			}
		}
	}
}

// expectPanic runs f and fails the test unless it panics.
func expectPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestThenPairsOnlyAtSameInsAndPoint(t *testing.T) {
	m, pc := loadCode(t, multiBlock)
	e := NewEngine(DefaultCost())
	nop := func(*Ctx) {}
	pred := func(*Ctx) bool { return true }
	e.AddTraceInstrumenter(func(tr *Trace) {
		head, next := tr.Bbls()[0].Ins()[0], tr.Bbls()[0].Ins()[1]
		head.InsertIfCall(Before, pred)
		expectPanic(t, "Then at another point", func() { head.InsertThenCall(After, nop) })
		expectPanic(t, "Then at another instruction", func() { next.InsertThenCall(Before, nop) })
		head.InsertThenCall(Before, nop)
		expectPanic(t, "second Then for one If", func() { head.InsertThenCall(Before, nop) })
	})
	if _, _, err := e.compile(m, pc, 0, true); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAfterCallbackPanics(t *testing.T) {
	m, pc := loadCode(t, multiBlock)
	e := NewEngine(DefaultCost())
	var ins *Ins
	var bbl *Bbl
	e.AddTraceInstrumenter(func(tr *Trace) {
		if ins == nil {
			bbl = tr.Bbls()[1]
			ins = bbl.InsHead()
			ins.InsertIfCall(Before, func(*Ctx) bool { return true })
		}
	})
	check := func(when string) {
		nop := func(*Ctx) {}
		expectPanic(t, "Ins.InsertCall "+when, func() { ins.InsertCall(Before, nop) })
		expectPanic(t, "Ins.InsertIfCall "+when, func() { ins.InsertIfCall(After, func(*Ctx) bool { return false }) })
		expectPanic(t, "Ins.InsertThenCall "+when, func() { ins.InsertThenCall(Before, nop) })
		expectPanic(t, "Bbl.InsertCall "+when, func() { bbl.InsertCall(Before, nop) })
	}
	if _, _, err := e.compile(m, pc, 0, true); err != nil {
		t.Fatal(err)
	}
	check("after the callback")
	// A stale handle stays closed while a later trace is being
	// instrumented.
	e.AddTraceInstrumenter(func(*Trace) { check("during a later callback") })
	if _, _, err := e.compile(m, pc, 0, true); err != nil {
		t.Fatal(err)
	}
}

func TestBblInsAppendKeepsNeighbours(t *testing.T) {
	m, pc := loadCode(t, multiBlock)
	e := NewEngine(DefaultCost())
	e.AddTraceInstrumenter(func(tr *Trace) {
		bbls := tr.Bbls()
		if len(bbls) != 3 {
			t.Fatalf("blocks = %d, want 3", len(bbls))
		}
		for k := 0; k < len(bbls)-1; k++ {
			next := bbls[k+1].InsHead()
			grown := append(bbls[k].Ins(), bbls[k].InsHead())
			if got := bbls[k+1].Ins()[0]; got != next || got.Addr() != bbls[k+1].Addr() {
				t.Fatalf("appending to block %d's Ins changed block %d's head (len %d)", k, k+1, len(grown))
			}
		}
		if grown := append(tr.Bbls(), bbls[0]); tr.Bbls()[len(bbls)-1] != bbls[len(bbls)-1] || len(grown) != 4 {
			t.Fatal("appending to Bbls changed the trace's blocks")
		}
	})
	if _, _, err := e.compile(m, pc, 0, true); err != nil {
		t.Fatal(err)
	}
}
