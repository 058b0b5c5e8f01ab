package cpu

import (
	"math/rand"
	"testing"

	"superpin/internal/isa"
	"superpin/internal/mem"
)

// writtenSet is a run's written-register mask (bit 0 always set), the
// mask ExecBlockCached's contract asks for.
func writtenSet(block []BlockIns) uint32 {
	m := uint32(1)
	for i := range block {
		if d := block[i].Inst.DstReg(); d >= 0 {
			m |= 1 << uint(d)
		}
	}
	return m
}

// execRef is the per-instruction reference for ExecBlock's stop and
// counting rules: one Exec call per instruction.
func execRef(r *Regs, m *mem.Memory, block []BlockIns, max int, cowStart uint64) (int, Event, error) {
	for i := range block[:min(max, len(block))] {
		ev, err := Exec(r, m, block[i].Inst)
		if err != nil {
			return i, EvNone, err
		}
		if ev != EvNone || r.PC != block[i].Next || m.CopyEvents != cowStart {
			return i + 1, ev, nil
		}
	}
	return min(max, len(block)), EvNone, nil
}

// runBothExecutors executes block through ExecBlock and ExecBlockCached
// (written-set mask), which share one inlined loop, and through the
// per-instruction Exec reference, from identical states, and asserts
// byte-identical outcomes: count, event, error, the full register file
// and memory.
func runBothExecutors(t *testing.T, seed map[uint32]uint32, init Regs, block []BlockIns, max int) (int, Event, error) {
	t.Helper()
	mRef := mem.New()
	for a, v := range seed {
		if f := mRef.StoreWord(a, v); f != nil {
			t.Fatal(f)
		}
	}
	ref := init
	rn, rev, rerr := execRef(&ref, mRef, block, max, mRef.CopyEvents)
	executors := []struct {
		name string
		exec func(*Regs, *mem.Memory) (int, Event, error)
	}{
		{"block", func(r *Regs, m *mem.Memory) (int, Event, error) {
			return ExecBlock(r, m, block, max, m.CopyEvents)
		}},
		{"cached", func(r *Regs, m *mem.Memory) (int, Event, error) {
			return ExecBlockCached(r, m, block, max, m.CopyEvents, writtenSet(block))
		}},
	}
	for _, x := range executors {
		name := x.name
		mGot := mem.New()
		for a, v := range seed {
			if f := mGot.StoreWord(a, v); f != nil {
				t.Fatal(f)
			}
		}
		got := init
		gn, gev, gerr := x.exec(&got, mGot)
		if rn != gn || rev != gev || (rerr == nil) != (gerr == nil) {
			t.Fatalf("%s diverged: ref (n=%d ev=%v err=%v) vs %s (n=%d ev=%v err=%v)",
				name, rn, rev, rerr, name, gn, gev, gerr)
		}
		if rerr != nil {
			re, ge := rerr.(*Error), gerr.(*Error)
			if re.PC != ge.PC || re.Inst != ge.Inst {
				t.Fatalf("%s fault state diverged: ref %+v vs %+v", name, re, ge)
			}
		}
		if ref != got {
			t.Fatalf("%s registers diverged after %d ins:\nref %+v\ngot %+v", name, rn, ref, got)
		}
		for a := range seed {
			rv, _ := mRef.LoadWord(a)
			gv, _ := mGot.LoadWord(a)
			if rv != gv {
				t.Fatalf("%s memory diverged at %#x: ref %#x, got %#x", name, a, rv, gv)
			}
		}
	}
	return rn, rev, rerr
}

// randBlock generates a random predecoded straight-line run mixing the
// cached loop's inlined opcodes with fallback ones (DIV, REM, byte
// memory, SYSCALL is excluded like real superblocks exclude it).
func randBlock(rng *rand.Rand, base uint32, n int) []BlockIns {
	ops := []isa.Opcode{
		isa.OpADD, isa.OpSUB, isa.OpMUL, isa.OpAND, isa.OpOR, isa.OpXOR,
		isa.OpSLL, isa.OpSRL, isa.OpSRA, isa.OpSLT, isa.OpSLTU,
		isa.OpADDI, isa.OpANDI, isa.OpORI, isa.OpXORI, isa.OpSLLI,
		isa.OpSRLI, isa.OpSRAI, isa.OpSLTI, isa.OpSLTIU, isa.OpLUI,
		isa.OpLW, isa.OpSW, isa.OpLB, isa.OpLBU, isa.OpSB,
		isa.OpDIV, isa.OpREM,
		isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU,
		isa.OpJAL, isa.OpJALR,
	}
	block := make([]BlockIns, n)
	for i := range block {
		in := isa.Inst{
			Op:  ops[rng.Intn(len(ops))],
			Rd:  uint8(rng.Intn(isa.NumRegs)),
			Rs1: uint8(rng.Intn(8)),
			Rs2: uint8(rng.Intn(8)),
			Imm: int32(rng.Intn(64) - 32),
		}
		if in.Op.IsMem() {
			// Register 7 holds a safe data-page base (see caller); keep
			// the offset word-aligned and small so LW/SW never fault
			// (byte ops accept any alignment).
			in.Rs1 = 7
			in.Imm = int32(rng.Intn(16)) * 4
		}
		if in.Op.IsCondBranch() {
			// Small forward offsets: taken branches leave the run,
			// exercising the early-stop path mid-block.
			in.Imm = int32(rng.Intn(8) + 1)
		}
		block[i] = BlockIns{Inst: in, Next: base + uint32(4*(i+1))}
	}
	return block
}

// TestExecBlockCachedDifferentialRandom drives both block executors and
// the per-instruction reference over thousands of random runs and
// demands byte-identical outcomes, including mid-run stops at taken
// branches.
func TestExecBlockCachedDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	const dataBase = 0x8000
	seed := map[uint32]uint32{}
	for i := uint32(0); i < 16; i++ {
		seed[dataBase+i*4] = 0xdead_0000 + i
	}
	for trial := 0; trial < 4000; trial++ {
		base := uint32(0x1000 + 4*rng.Intn(64))
		block := randBlock(rng, base, 1+rng.Intn(12))
		init := Regs{PC: base}
		for i := 1; i < 8; i++ {
			init.R[i] = rng.Uint32()
		}
		init.R[7] = dataBase
		max := 1 + rng.Intn(len(block))
		runBothExecutors(t, seed, init, block, max)
	}
}

// TestExecBlockCachedFault: a faulting load must stop uncounted with the
// PC on the faulting instruction and every prior register write visible
// through the masked writeback.
func TestExecBlockCachedFault(t *testing.T) {
	const base = 0x1000
	block := mkBlock(base,
		isa.Inst{Op: isa.OpADDI, Rd: 1, Rs1: 0, Imm: 2}, // r1 = 2 (misaligned)
		isa.Inst{Op: isa.OpADDI, Rd: 2, Rs1: 0, Imm: 9}, // must survive the fault
		isa.Inst{Op: isa.OpLW, Rd: 3, Rs1: 1, Imm: 0},   // faults
	)
	n, _, err := runBothExecutors(t, nil, Regs{PC: base}, block, len(block))
	if err == nil || n != 2 {
		t.Fatalf("n=%d err=%v, want 2 with fault", n, err)
	}
}

// TestExecBlockCachedCowStop: a copy-on-write event must break the run at
// the triggering store, exactly like ExecBlock.
func TestExecBlockCachedCowStop(t *testing.T) {
	const base = 0x1000
	parent := mem.New()
	if f := parent.StoreWord(0x8000, 42); f != nil {
		t.Fatal(f)
	}
	block := mkBlock(base,
		isa.Inst{Op: isa.OpADDI, Rd: 1, Rs1: 0, Imm: 0x20},
		isa.Inst{Op: isa.OpSLLI, Rd: 1, Rs1: 1, Imm: 10}, // r1 = 0x8000
		isa.Inst{Op: isa.OpSW, Rd: 2, Rs1: 1, Imm: 0},    // COW copy
		isa.Inst{Op: isa.OpADDI, Rd: 3, Rs1: 0, Imm: 1},  // after the event
	)
	for _, full := range []uint32{writtenSet(block), ^uint32(0)} {
		child := parent.Fork()
		r := Regs{PC: base}
		n, ev, err := ExecBlockCached(&r, child, block, len(block), child.CopyEvents, full)
		if err != nil || ev != EvNone || n != 3 {
			t.Fatalf("mask %#x: n=%d ev=%v err=%v, want 3/EvNone", full, n, ev, err)
		}
		if r.R[3] != 0 {
			t.Fatalf("mask %#x: instruction after COW event executed", full)
		}
	}
}

// TestWriteBackMasked: only the registers selected by the mask (plus PC)
// may move; everything else must keep the destination's values. This is
// the contract that makes a written-set mask sufficient — registers the
// run cannot write still hold their original values in the local copy.
func TestWriteBackMasked(t *testing.T) {
	var dst, src Regs
	for i := range src.R {
		dst.R[i] = uint32(100 + i)
		src.R[i] = uint32(200 + i)
	}
	dst.PC, src.PC = 0x1000, 0x2000
	want := dst
	wb := uint32(1)<<5 | 1<<17 | 1
	writeBack(&dst, &src, wb)
	want.R[0], want.R[5], want.R[17] = src.R[0], src.R[5], src.R[17]
	want.PC = src.PC
	if dst != want {
		t.Fatalf("masked writeback:\ngot  %+v\nwant %+v", dst, want)
	}
	// The full mask copies everything.
	writeBack(&dst, &src, ^uint32(0))
	if dst != src {
		t.Fatal("full-mask writeback is not a full copy")
	}
}
