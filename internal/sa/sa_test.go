package sa

import (
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"superpin/internal/asm"
	"superpin/internal/isa"
	"superpin/internal/workload"
)

// diamond builds the canonical if/else/join shape:
//
//	0x1000  addi r10, r0, 5
//	0x1004  beq  r10, r0, else
//	0x1008  addi r11, r0, 1    (then)
//	0x100c  j    join
//	0x1010  addi r11, r0, 2    (else; falls through to join)
//	0x1014  add  r12, r11, r10 (join)
//	0x1018  addi r1, r0, 1
//	0x101c  addi r2, r12, 0
//	0x1020  syscall            (provable exit)
func diamond(t *testing.T) *Analysis {
	t.Helper()
	b := asm.NewBuilder(0x1000)
	b.I(isa.OpADDI, 10, isa.RegZero, 5)
	b.Branch(isa.OpBEQ, 10, isa.RegZero, "else")
	b.I(isa.OpADDI, 11, isa.RegZero, 1)
	b.J("join")
	b.Label("else")
	b.I(isa.OpADDI, 11, isa.RegZero, 2)
	b.Label("join")
	b.R(isa.OpADD, 12, 11, 10)
	b.I(isa.OpADDI, isa.RegSys, isa.RegZero, 1)
	b.I(isa.OpADDI, isa.RegArg0, 12, 0)
	b.Syscall()
	a := Analyze(b.MustFinish())
	if err := a.Err(); err != nil {
		t.Fatalf("diamond must verify clean: %v", err)
	}
	return a
}

func TestCFGDiamond(t *testing.T) {
	a := diamond(t)
	if got := a.NumBlocks(); got != 4 {
		t.Fatalf("NumBlocks = %d, want 4", got)
	}
	for _, addr := range []uint32{0x1000, 0x1008, 0x1010, 0x1014, 0x1020} {
		if !a.Reachable(addr) {
			t.Errorf("Reachable(%#x) = false", addr)
		}
	}
	leaders := map[uint32]uint32{
		0x1000: 0x1000, 0x1004: 0x1000, // entry block spans the beq
		0x1008: 0x1008, 0x100c: 0x1008, // then
		0x1010: 0x1010,                 // else
		0x1014: 0x1014, 0x1020: 0x1014, // join through the syscall
	}
	for addr, want := range leaders {
		got, ok := a.BlockLeader(addr)
		if !ok || got != want {
			t.Errorf("BlockLeader(%#x) = %#x,%v, want %#x", addr, got, ok, want)
		}
	}
	succs := func(addr uint32) []uint32 {
		s := a.Succs(addr)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s
	}
	checks := []struct {
		addr uint32
		want []uint32
	}{
		{0x1000, []uint32{0x1008, 0x1010}}, // branch: fall-through and taken
		{0x1008, []uint32{0x1014}},         // jump to join
		{0x1010, []uint32{0x1014}},         // leader-cut fall-through into join
		{0x1014, nil},                      // provable exit: no successors
	}
	for _, c := range checks {
		got := succs(c.addr)
		if len(got) != len(c.want) {
			t.Errorf("Succs(%#x) = %#x, want %#x", c.addr, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Succs(%#x) = %#x, want %#x", c.addr, got, c.want)
				break
			}
		}
	}
}

func TestDominatorsDiamond(t *testing.T) {
	a := diamond(t)
	for _, c := range []struct {
		addr, idom uint32
	}{
		{0x1008, 0x1000}, // then
		{0x1010, 0x1000}, // else
		{0x1014, 0x1000}, // join: neither arm dominates it
	} {
		got, ok := a.Idom(c.addr)
		if !ok || got != c.idom {
			t.Errorf("Idom(%#x) = %#x,%v, want %#x", c.addr, got, ok, c.idom)
		}
	}
	if _, ok := a.Idom(0x1000); ok {
		t.Error("entry block must have no immediate dominator")
	}
	if !a.Dominates(0x1000, 0x1014) {
		t.Error("entry must dominate the join")
	}
	if a.Dominates(0x1008, 0x1014) || a.Dominates(0x1010, 0x1014) {
		t.Error("neither diamond arm may dominate the join")
	}
	if !a.Dominates(0x1014, 0x1020) {
		t.Error("dominance must be reflexive within a block")
	}
}

func TestLivenessDiamond(t *testing.T) {
	a := diamond(t)
	mask := func(regs ...uint) uint32 {
		m := uint32(1) // stored masks always carry the r0 bit
		for _, r := range regs {
			m |= 1 << r
		}
		return m
	}
	cases := []struct {
		addr uint32
		in   uint32
		what string
	}{
		// join add: r10/r11 feed it; r3..r5 survive to the syscall
		// (argument registers of the proven exit, never redefined).
		{0x1014, mask(3, 4, 5, 10, 11), "join add"},
		// after the exit code is moved into r2 only the syscall's
		// argument registers remain.
		{0x1020, mask(1, 2, 3, 4, 5), "syscall"},
		// then-arm entry: r11 is about to be redefined, r10 still live.
		{0x1008, mask(3, 4, 5, 10), "then arm"},
	}
	for _, c := range cases {
		if got := a.LiveIn(c.addr); got != c.in {
			t.Errorf("LiveIn(%#x) [%s] = %#032b, want %#032b", c.addr, c.what, got, c.in)
		}
	}
	// The proven-exit syscall leaves nothing live (bit 0 aside).
	if got := a.LiveOut(0x1020); got != 1 {
		t.Errorf("LiveOut(syscall) = %#032b, want just the r0 marker bit", got)
	}
	// Bit-0 invariant: every analyzed mask is nonzero and carries r0.
	for addr := uint32(0x1000); addr <= 0x1020; addr += 4 {
		if in := a.LiveIn(addr); in&1 == 0 {
			t.Errorf("LiveIn(%#x) = %#x missing the r0 marker bit", addr, in)
		}
		if out := a.LiveOut(addr); out&1 == 0 {
			t.Errorf("LiveOut(%#x) = %#x missing the r0 marker bit", addr, out)
		}
	}
	// Unknown addresses answer with the conservative everything-mask.
	if got := a.LiveIn(0xdead_0000); got != AllRegs {
		t.Errorf("LiveIn(unknown) = %#x, want AllRegs", got)
	}
}

// TestLivenessCallConservatism: to the intraprocedural tier a block
// ending in a call has statically unknown effects (the callee could run
// arbitrary code), so everything must be live across it. An unprovable
// syscall number likewise keeps the maximal use set (it could be a
// spawn, which snapshots every register).
func TestLivenessCallConservatism(t *testing.T) {
	b := asm.NewBuilder(0x1000)
	b.I(isa.OpADDI, 10, isa.RegZero, 5) // 0x1000
	b.Call("fn")                        // 0x1004
	b.I(isa.OpADDI, isa.RegSys, isa.RegZero, 1)
	b.Syscall()
	b.Label("fn")
	b.I(isa.OpADDI, isa.RegSys, 10, 0) // r1 from r10: number not provable
	b.Syscall()                        // could be a spawn
	a := AnalyzeIntra(b.MustFinish())
	if got := a.LiveOut(0x1004); got != AllRegs {
		t.Errorf("LiveOut(call) = %#x, want AllRegs", got)
	}
	fn := a.Addr(t, "fn")
	if got := a.LiveIn(fn + 4); got != AllRegs {
		t.Errorf("LiveIn(unprovable syscall) = %#x, want AllRegs", got)
	}
}

// TestLivenessInterprocNarrows: with the call graph in hand the same
// program proves r1 dead across the call — the callee certainly
// overwrites it before the syscall can observe it — so the full tier's
// mask is strictly narrower than the intraprocedural one, and never
// wider anywhere.
func TestLivenessInterprocNarrows(t *testing.T) {
	b := asm.NewBuilder(0x1000)
	b.I(isa.OpADDI, 10, isa.RegZero, 5)
	b.Call("fn")
	b.I(isa.OpADDI, isa.RegSys, isa.RegZero, 1)
	b.Syscall()
	b.Label("fn")
	b.I(isa.OpADDI, isa.RegSys, 10, 0)
	b.Syscall()
	prog := b.MustFinish()
	full := Analyze(prog)
	intra := AnalyzeIntra(prog)
	got := full.LiveOut(0x1004)
	if got == AllRegs {
		t.Errorf("LiveOut(call) = %#x: interprocedural tier did not narrow", got)
	}
	if got&(1<<isa.RegSys) != 0 {
		t.Errorf("LiveOut(call) = %#x: r1 is certainly killed by the callee", got)
	}
	if wide := got &^ intra.LiveOut(0x1004); wide != 0 {
		t.Errorf("full tier widened the mask by %#x", wide)
	}
}

// Addr is a test helper resolving a label through the program symbols.
func (a *Analysis) Addr(t *testing.T, label string) uint32 {
	t.Helper()
	addr, ok := a.prog.Symbols[label]
	if !ok {
		t.Fatalf("no symbol %q", label)
	}
	return addr
}

func TestPredecoded(t *testing.T) {
	a := diamond(t)
	run, ok := a.Predecoded(0x1014)
	if !ok {
		t.Fatal("Predecoded(join) not found")
	}
	if len(run) != 4 { // add, addi, addi, syscall — to the region end
		t.Fatalf("len(run) = %d, want 4", len(run))
	}
	if run[0].Inst.Op != isa.OpADD || run[3].Inst.Op != isa.OpSYSCALL {
		t.Errorf("predecoded run mismatch: %v ... %v", run[0].Inst, run[3].Inst)
	}
	if _, ok := a.Predecoded(0xdead_0000); ok {
		t.Error("Predecoded must reject addresses outside the image")
	}
}

func TestSummary(t *testing.T) {
	a := diamond(t)
	liveIn, liveOut, ok := a.Summary(0x1014, 4)
	if !ok {
		t.Fatal("Summary over the join block must succeed")
	}
	if liveIn != a.LiveIn(0x1014) {
		t.Errorf("Summary liveIn = %#x, want LiveIn(head) = %#x", liveIn, a.LiveIn(0x1014))
	}
	want := a.LiveOut(0x1014) | a.LiveOut(0x1018) | a.LiveOut(0x101c) | a.LiveOut(0x1020)
	if liveOut != want {
		t.Errorf("Summary liveOut = %#x, want union %#x", liveOut, want)
	}
	if _, _, ok := a.Summary(0x1014, 1000); ok {
		t.Error("Summary past the region end must fail")
	}
}

// TestAnalysisConcurrentReaders shares one Analysis of gcc between
// eight goroutines, as the artifact store and SuperPin's slice engines
// do, and has each run every query over every image word. Run under
// -race it proves the queries only read; each goroutine must also see
// exactly the answers of a serial pass.
func TestAnalysisConcurrentReaders(t *testing.T) {
	spec, _ := workload.ByName("gcc")
	prog, err := spec.Scaled(0.02).Build()
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(prog)
	if !a.IPStats().ValuesOK {
		t.Fatal("gcc has no fold-grade value states; ProveCond would not be exercised")
	}
	type answer struct {
		liveIn, sumIn, sumOut uint32
		sumOK, dom, eqVal     bool
		eqProven, preOK       bool
		pre                   isa.Inst
	}
	query := func() []answer {
		var out []answer
		for _, r := range a.regions {
			for i := 0; i < r.words(); i++ {
				addr := r.wordAddr(i)
				var ans answer
				ans.liveIn = a.LiveIn(addr)
				ans.sumIn, ans.sumOut, ans.sumOK = a.Summary(addr, 4)
				ans.eqVal, ans.eqProven = a.ProveCond(addr, Cond{Kind: CondEQ, Reg: isa.RegSys, Imm: 1})
				ans.dom = a.Dominates(prog.Entry, addr)
				if run, ok := a.Predecoded(addr); ok {
					ans.preOK, ans.pre = true, run[0].Inst
				}
				out = append(out, ans)
			}
		}
		return out
	}
	want := query()
	if !slices.ContainsFunc(want, func(w answer) bool { return w.eqProven }) {
		t.Fatal("no ProveCond query was decided; the fold path would go untested")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := query(); !reflect.DeepEqual(got, want) {
				t.Error("a concurrent reader saw different answers than the serial pass")
			}
		}()
	}
	wg.Wait()
}
