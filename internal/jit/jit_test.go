package jit

import (
	"reflect"
	"testing"

	"superpin/internal/asm"
	"superpin/internal/cpu"
	"superpin/internal/isa"
	"superpin/internal/mem"
)

func loadSrc(t *testing.T, src string) (*mem.Memory, *asm.Program) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	p.LoadInto(m)
	return m, p
}

func TestTraceEndsAtUnconditionalJump(t *testing.T) {
	m, p := loadSrc(t, `
main:
	addi r1, r1, 1
	addi r2, r2, 2
	j main
`)
	tr, err := BuildTrace(m, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Bbls) != 1 || tr.NumIns != 3 {
		t.Fatalf("bbls=%d ins=%d, want 1 bbl of 3", len(tr.Bbls), tr.NumIns)
	}
	last := tr.Bbls[0].Ins[2]
	if last.Op != isa.OpJAL {
		t.Fatalf("last op = %v", last.Op)
	}
}

func TestTraceExtendsThroughConditionalBranches(t *testing.T) {
	m, p := loadSrc(t, `
main:
	addi r1, r1, 1
	beq r1, r2, main    ; bbl 1 ends here
	addi r3, r3, 1
	bne r1, r3, main    ; bbl 2 ends here
	addi r4, r4, 1
	syscall             ; bbl 3 ends here, trace ends
`)
	tr, err := BuildTrace(m, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Bbls) != 3 {
		t.Fatalf("bbls = %d, want 3", len(tr.Bbls))
	}
	if tr.NumIns != 6 {
		t.Fatalf("ins = %d, want 6", tr.NumIns)
	}
	if tr.Bbls[1].Addr != p.Entry+8 {
		t.Fatalf("bbl1 addr = %#x", tr.Bbls[1].Addr)
	}
	if tr.Bbls[2].Ins[1].Op != isa.OpSYSCALL {
		t.Fatal("trace did not end at syscall")
	}
	// The blocks share one instruction array; each window is capped, so
	// appending to one block never overwrites the next.
	next := tr.Bbls[1].Ins[0]
	_ = append(tr.Bbls[0].Ins, isa.Inst{Op: isa.OpSYSCALL})
	if tr.Bbls[1].Ins[0] != next {
		t.Fatal("appending to block 0 changed block 1")
	}
}

func TestTraceSizeLimits(t *testing.T) {
	// A long run of straight-line code must stop at MaxTraceIns.
	src := ""
	for i := 0; i < 200; i++ {
		src += "addi r1, r1, 1\n"
	}
	src += "syscall\n"
	m, p := loadSrc(t, src)
	tr, err := BuildTrace(m, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumIns != MaxTraceIns {
		t.Fatalf("ins = %d, want %d", tr.NumIns, MaxTraceIns)
	}

	// Many tiny blocks must stop at MaxTraceBbls.
	src = ""
	for i := 0; i < 20; i++ {
		src += "beq r1, r2, done\n"
	}
	src += "done: syscall\n"
	m, p = loadSrc(t, src)
	tr, err = BuildTrace(m, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Bbls) != MaxTraceBbls {
		t.Fatalf("bbls = %d, want %d", len(tr.Bbls), MaxTraceBbls)
	}
}

func TestTraceStopsBeforeUndecodableWord(t *testing.T) {
	m, p := loadSrc(t, `
main:
	addi r1, r1, 1
	.word 0xffffffff
`)
	tr, err := BuildTrace(m, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumIns != 1 {
		t.Fatalf("ins = %d, want 1 (stop before garbage)", tr.NumIns)
	}
}

func TestTraceAtGarbageFails(t *testing.T) {
	m := mem.New()
	m.StoreWord(0x100, 0xffffffff)
	_, err := BuildTrace(m, 0x100)
	if err == nil {
		t.Fatal("BuildTrace on garbage succeeded")
	}
	// The fault reads exactly as cpu.Step reports the same fetch.
	_, _, want := cpu.Step(&cpu.Regs{PC: 0x100}, m)
	if ce, ok := err.(*cpu.Error); !ok || ce.PC != 0x100 || err.Error() != want.Error() {
		t.Fatalf("BuildTrace error %v (%T), want cpu.Step's %v", err, err, want)
	}
}

func TestCompilePreservesAddresses(t *testing.T) {
	m, p := loadSrc(t, `
main:
	addi r1, r1, 1
	beq r1, r2, main
	addi r3, r3, 1
	syscall
`)
	tr, err := BuildTrace(m, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	ct := Compile(tr)
	if ct.NumIns() != tr.NumIns {
		t.Fatalf("compiled %d ins, want %d", ct.NumIns(), tr.NumIns)
	}
	for i, ci := range ct.Ins {
		want := p.Entry + uint32(i)*4
		if ci.Addr != want {
			t.Fatalf("ins %d addr = %#x, want %#x", i, ci.Addr, want)
		}
	}
}

func TestCodeCacheFlushAtCapacity(t *testing.T) {
	c := NewCodeCache(10)
	mk := func(addr uint32, n int) *CompiledTrace {
		ct := &CompiledTrace{Addr: addr}
		for i := 0; i < n; i++ {
			ct.Ins = append(ct.Ins, CompiledIns{Addr: addr + uint32(4*i)})
		}
		return ct
	}
	c.Insert(mk(0x100, 6))
	c.Insert(mk(0x200, 6)) // exceeds 10: flush, then insert
	if c.Stats().Flushes != 1 {
		t.Fatalf("flushes = %d, want 1", c.Stats().Flushes)
	}
	// Lookup is a pure read; the caller records outcomes explicitly.
	ct1 := c.Lookup(0x100)
	c.RecordLookup(ct1 != nil)
	if ct1 != nil {
		t.Fatal("trace survived flush")
	}
	ct2 := c.Lookup(0x200)
	c.RecordLookup(ct2 != nil)
	if ct2 == nil {
		t.Fatal("trace inserted after flush missing")
	}
	if c.Resident() != 6 {
		t.Fatalf("resident = %d", c.Resident())
	}
	st := c.Stats()
	if st.Compiles != 2 || st.CompiledIns != 12 || st.Lookups != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCodeCacheInvalidateRange(t *testing.T) {
	c := NewCodeCache(100)
	for _, addr := range []uint32{0x100, 0x200, 0x300} {
		c.Insert(&CompiledTrace{Addr: addr, Code: Code{Ins: make([]CompiledIns, 4)}}) // [addr, addr+15]
	}
	epoch := c.Epoch()
	if n := c.Invalidate(0x110, 0x1ff); n != 0 || c.Epoch() != epoch {
		t.Fatalf("store between traces dropped %d, epoch %d → %d", n, epoch, c.Epoch())
	}
	// One byte into the last word of 0x200's trace, and a range reaching
	// the first byte of 0x300's.
	if n := c.Invalidate(0x20f, 0x20f); n != 1 || c.Lookup(0x200) != nil {
		t.Fatalf("byte store dropped %d traces", n)
	}
	if n := c.Invalidate(0x2f0, 0x300); n != 1 || c.Lookup(0x300) != nil || c.Lookup(0x100) == nil {
		t.Fatalf("range store dropped %d traces", n)
	}
	if c.Resident() != 4 || c.Epoch() != epoch+2 || c.Stats().Flushes != 0 {
		t.Fatalf("resident %d, epoch %d, stats %+v", c.Resident(), c.Epoch(), c.Stats())
	}
	// A trace that wraps past the top of the address space, as the PC
	// does, covers [0xfffffff8, 0x7].
	c.Insert(&CompiledTrace{Addr: 0xfffffff8, Code: Code{Ins: make([]CompiledIns, 4)}})
	if n := c.Invalidate(0x8, 0x8); n != 0 {
		t.Fatalf("store past a wrapped trace dropped %d", n)
	}
	if n := c.Invalidate(0x4, 0x4); n != 1 {
		t.Fatalf("store into a wrapped trace's tail dropped %d", n)
	}
}

func TestCodeCacheUnlimited(t *testing.T) {
	c := NewCodeCache(0)
	for i := uint32(0); i < 100; i++ {
		ct := &CompiledTrace{Addr: i * 0x100, Code: Code{Ins: make([]CompiledIns, 50)}}
		c.Insert(ct)
	}
	if c.Stats().Flushes != 0 {
		t.Fatal("unlimited cache flushed")
	}
	if c.Resident() != 5000 {
		t.Fatalf("resident = %d", c.Resident())
	}
}

// TestCompiledInsHoldsNoPointer pins the compiled-instruction layout:
// call ranges into the trace's slab, not slices, so an instruction array
// is memory the collector never scans.
func TestCompiledInsHoldsNoPointer(t *testing.T) {
	var hasPointer func(reflect.Type) bool
	hasPointer = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if hasPointer(ty.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Array:
			return hasPointer(ty.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			return false
		}
		return true
	}
	ty := reflect.TypeOf(CompiledIns{})
	if hasPointer(ty) {
		t.Errorf("jit.CompiledIns holds a pointer: %v", ty)
	}
	if size := ty.Size(); size > 20 {
		t.Errorf("jit.CompiledIns is %d bytes, want <= 20", size)
	}
}
