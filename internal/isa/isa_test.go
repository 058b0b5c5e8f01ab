package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randInst produces a random valid instruction for property tests.
func randInst(r *rand.Rand) Inst {
	op := Opcode(r.Intn(NumOpcodes))
	in := Inst{Op: op}
	switch op.Format() {
	case FormatR:
		in.Rd = uint8(r.Intn(NumRegs))
		in.Rs1 = uint8(r.Intn(NumRegs))
		in.Rs2 = uint8(r.Intn(NumRegs))
	case FormatI:
		if op.IsCondBranch() {
			in.Rs1 = uint8(r.Intn(NumRegs))
			in.Rs2 = uint8(r.Intn(NumRegs))
		} else {
			in.Rd = uint8(r.Intn(NumRegs))
			in.Rs1 = uint8(r.Intn(NumRegs))
		}
		if op.ZeroExtImm() {
			in.Imm = int32(r.Intn(1 << 16))
		} else {
			in.Imm = int32(r.Intn(1<<16)) + MinImm16
		}
	case FormatJ:
		in.Rd = uint8(r.Intn(NumRegs))
		in.Imm = int32(r.Intn(1<<21)) + MinImm21
	}
	return in
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		in := randInst(r)
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		got, err := Decode(w)
		if err != nil {
			t.Fatalf("Decode(%#08x) from %v: %v", w, in, err)
		}
		if got != in {
			t.Fatalf("round trip mismatch: %v -> %#08x -> %v", in, w, got)
		}
	}
}

func TestDecodeEncodeRoundTripQuick(t *testing.T) {
	// Any word that decodes must re-encode to a word that decodes to the
	// same instruction (encodings may differ in don't-care bits).
	f := func(w uint32) bool {
		in, err := Decode(w)
		if err != nil {
			return true // undefined opcodes are fine
		}
		w2, err := Encode(in)
		if err != nil {
			return false
		}
		in2, err := Decode(w2)
		return err == nil && in2 == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	cases := []Inst{
		{Op: OpADDI, Rd: 1, Rs1: 1, Imm: MaxImm16 + 1},
		{Op: OpADDI, Rd: 1, Rs1: 1, Imm: MinImm16 - 1},
		{Op: OpANDI, Rd: 1, Rs1: 1, Imm: -1},
		{Op: OpANDI, Rd: 1, Rs1: 1, Imm: 1 << 16},
		{Op: OpJAL, Rd: 1, Imm: MaxImm21 + 1},
		{Op: OpJAL, Rd: 1, Imm: MinImm21 - 1},
		{Op: numOpcodes, Rd: 1},
		{Op: OpADD, Rd: 32},
	}
	for _, in := range cases {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%v) unexpectedly succeeded", in)
		}
	}
}

func TestDecodeRejectsUndefinedOpcode(t *testing.T) {
	w := uint32(numOpcodes) << 26
	if _, err := Decode(w); err == nil {
		t.Fatal("Decode of undefined opcode succeeded")
	}
}

func TestOpcodePredicates(t *testing.T) {
	checks := []struct {
		op                               Opcode
		load, store, cond, uncond, contr bool
	}{
		{OpADD, false, false, false, false, false},
		{OpLW, true, false, false, false, false},
		{OpSB, false, true, false, false, false},
		{OpBEQ, false, false, true, false, true},
		{OpJAL, false, false, false, true, true},
		{OpJALR, false, false, false, true, true},
		{OpSYSCALL, false, false, false, false, true},
	}
	for _, c := range checks {
		if c.op.IsLoad() != c.load || c.op.IsStore() != c.store ||
			c.op.IsCondBranch() != c.cond || c.op.IsUncondBranch() != c.uncond ||
			c.op.IsControl() != c.contr {
			t.Errorf("%v: predicate mismatch", c.op)
		}
	}
	if !OpLW.IsMem() || OpADD.IsMem() {
		t.Error("IsMem wrong")
	}
	if OpLW.MemSize() != 4 || OpLB.MemSize() != 1 || OpSW.MemSize() != 4 || OpADD.MemSize() != 0 {
		t.Error("MemSize wrong")
	}
	if !OpBEQ.EndsBlock() || !OpSYSCALL.EndsBlock() || OpADD.EndsBlock() {
		t.Error("EndsBlock wrong")
	}
	// The flag lookups must agree with opTable for every byte value,
	// including the invalid opcodes past numOpcodes.
	for v := 0; v < 256; v++ {
		op := Opcode(v)
		var load, store bool
		if op.Valid() {
			load, store = opTable[op].load, opTable[op].store
		}
		if op.IsLoad() != load || op.IsStore() != store {
			t.Errorf("%v: IsLoad/IsStore = %v/%v, opTable says %v/%v",
				op, op.IsLoad(), op.IsStore(), load, store)
		}
		if op.IsMem() != (op.IsLoad() || op.IsStore()) {
			t.Errorf("%v: IsMem = %v, IsLoad || IsStore = %v", op, op.IsMem(), op.IsLoad() || op.IsStore())
		}
	}
}

func TestSrcDstRegs(t *testing.T) {
	in := Inst{Op: OpADD, Rd: 3, Rs1: 4, Rs2: 5}
	if in.SrcRegs() != (1<<4 | 1<<5) {
		t.Errorf("ADD SrcRegs = %#x", in.SrcRegs())
	}
	if in.DstReg() != 3 {
		t.Errorf("ADD DstReg = %d", in.DstReg())
	}
	st := Inst{Op: OpSW, Rd: 7, Rs1: 29, Imm: 8}
	if st.SrcRegs() != (1<<7 | 1<<29) {
		t.Errorf("SW SrcRegs = %#x", st.SrcRegs())
	}
	if st.DstReg() != -1 {
		t.Errorf("SW DstReg = %d", st.DstReg())
	}
	br := Inst{Op: OpBNE, Rs1: 1, Rs2: 2}
	if br.DstReg() != -1 {
		t.Errorf("BNE DstReg = %d", br.DstReg())
	}
	zw := Inst{Op: OpADD, Rd: RegZero, Rs1: 1, Rs2: 2}
	if zw.DstReg() != -1 {
		t.Errorf("write to zero reg DstReg = %d", zw.DstReg())
	}
	sc := Inst{Op: OpSYSCALL}
	if sc.DstReg() != RegSys {
		t.Errorf("SYSCALL DstReg = %d", sc.DstReg())
	}
}

func TestRegNames(t *testing.T) {
	if RegName(0) != "zero" || RegName(29) != "sp" || RegName(30) != "fp" || RegName(31) != "ra" || RegName(7) != "r7" {
		t.Error("RegName aliases wrong")
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Inst{Op: OpLW, Rd: 1, Rs1: 29, Imm: 8}, "lw r1, 8(sp)"},
		{Inst{Op: OpBEQ, Rs1: 1, Rs2: 0, Imm: -4}, "beq r1, zero, -4"},
		{Inst{Op: OpJAL, Rd: 31, Imm: 10}, "jal ra, 10"},
		{Inst{Op: OpSYSCALL}, "syscall"},
		{Inst{Op: OpLUI, Rd: 5, Imm: 16}, "lui r5, 16"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.in, got, c.want)
		}
	}
}
