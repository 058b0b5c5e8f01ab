package sa

import (
	"reflect"
	"slices"
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
		if ri, wi, ok := a.locate(addr); !ok || a.regions[ri].reach[wi] != reachEntry {
			t.Errorf("%#x is not reachable from the entry", addr)
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
		var s []uint32
		for _, id := range a.blockAt(addr).succs {
			s = append(s, leaderAddr(a, id))
		}
		slices.Sort(s)
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
			t.Errorf("succs(%#x) = %#x, want %#x", c.addr, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("succs(%#x) = %#x, want %#x", c.addr, got, c.want)
				break
			}
		}
	}
}

// leaderAddr returns the address of block id's first instruction.
func leaderAddr(a *Analysis, id int) uint32 {
	b := a.blocks[id]
	return a.regions[b.ri].wordAddr(b.start)
}

// blockID returns the id of the block containing addr.
func blockID(t *testing.T, a *Analysis, addr uint32) int {
	t.Helper()
	ri, wi, ok := a.locate(addr)
	if !ok || a.regions[ri].blockOf[wi] < 0 {
		t.Fatalf("%#x is in no block", addr)
	}
	return int(a.regions[ri].blockOf[wi])
}

func TestDominatorsDiamond(t *testing.T) {
	a := diamond(t)
	entry, join := blockID(t, a, 0x1000), blockID(t, a, 0x1014)
	for _, c := range []struct {
		addr, idom uint32
	}{
		{0x1008, 0x1000}, // then
		{0x1010, 0x1000}, // else
		{0x1014, 0x1000}, // join: neither arm dominates it
	} {
		d := a.idom[blockID(t, a, c.addr)]
		if d < 0 || leaderAddr(a, d) != c.idom {
			t.Errorf("idom(%#x) = block %d, want the block at %#x", c.addr, d, c.idom)
		}
	}
	if a.idom[entry] >= 0 {
		t.Error("entry block must have no immediate dominator")
	}
	if !a.dominates(entry, join) {
		t.Error("entry must dominate the join")
	}
	if a.dominates(blockID(t, a, 0x1008), join) || a.dominates(blockID(t, a, 0x1010), join) {
		t.Error("neither diamond arm may dominate the join")
	}
	if !a.dominates(join, blockID(t, a, 0x1020)) {
		t.Error("dominance must be reflexive within a block")
	}
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

// TestAnalysisConcurrentReaders shares one Analysis of gcc between
// eight goroutines and has each run every query over every image word.
// Run under -race it proves the queries only read; each goroutine must
// also see exactly the answers of a serial pass.
func TestAnalysisConcurrentReaders(t *testing.T) {
	spec, _ := workload.ByName("gcc")
	prog, err := spec.Scaled(0.02).Build()
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(prog)
	type answer struct {
		leader          uint32
		leaderOK, preOK bool
		pre             isa.Inst
	}
	query := func() []answer {
		var out []answer
		for _, r := range a.regions {
			for i := 0; i < r.words(); i++ {
				addr := r.wordAddr(i)
				var ans answer
				ans.leader, ans.leaderOK = a.BlockLeader(addr)
				if run, ok := a.Predecoded(addr); ok {
					ans.preOK, ans.pre = true, run[0].Inst
				}
				out = append(out, ans)
			}
		}
		return out
	}
	want := query()
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
