package sa

import (
	"reflect"
	"strings"
	"testing"

	"superpin/internal/asm"
)

// TestTarjanSCCHandBuilt checks the SCC decomposition on a hand-built
// cyclic call graph: a three-cycle calling into a two-cycle, plus an
// isolated node. The partition, the callees-first emission order and
// determinism across repeated runs are all pinned.
func TestTarjanSCCHandBuilt(t *testing.T) {
	nodes := []int{1, 2, 3, 4, 5, 6}
	edges := [][]int{
		1: {2},
		2: {3},
		3: {1, 4}, // the three-cycle calls into the two-cycle
		4: {5},
		5: {4},
		6: nil,
	}
	want := [][]int{{4, 5}, {1, 2, 3}, {6}}
	first := tarjanSCC(nodes, edges)
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("sccs = %v, want %v (callees before callers)", first, want)
	}
	for i := 0; i < 10; i++ {
		if got := tarjanSCC(nodes, edges); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: nondeterministic sccs: %v vs %v", i, got, first)
		}
	}
}

// rebuiltAnalyzer returns scratch state for a finished analysis, so a
// test can rerun a pass on its final CFG. The syscall-number states
// buildBlocks handed the original are replayed from the instructions.
func rebuiltAnalyzer(a *Analysis) *analyzer {
	r1 := make([]r1State, len(a.blocks))
	for id, b := range a.blocks {
		for i := b.start; i < b.end-1; i++ {
			r1[id] = trackR1(r1[id], a.regions[b.ri].ins[i])
		}
	}
	return newAnalyzer(a, r1)
}

// mutualSrc is a mutually recursive even/odd pair: the call graph's
// only nontrivial SCC.
const mutualSrc = `	.entry main
even:
	beq r10, r0, yes
	addi r10, r10, -1
	call odd
	ret
yes:
	li r11, 1
	ret
odd:
	beq r10, r0, no
	addi r10, r10, -1
	call even
	ret
no:
	li r11, 0
	ret
main:
	li r10, 6
	call even
	li r1, 1
	li r2, 0
	syscall
`

// TestSCCFixpointConverges analyzes a mutually recursive program and
// pins the interprocedural liveness fixpoint: the mutual-recursion SCC
// is recovered as one multi-member component, a second liveness sweep
// over the converged state changes no mask (true fixpoint), and no mask
// is ever wider than the intraprocedural tier's.
func TestSCCFixpointConverges(t *testing.T) {
	prog, err := asm.Assemble(mutualSrc)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	a := Analyze(prog)
	if a.Err() != nil {
		t.Fatalf("analyze: %v", a.Err())
	}
	if a.ip == nil {
		t.Fatal("full analysis retained no interprocedural state")
	}

	// Recover the function-level call multigraph from the analysis and
	// confirm even/odd form the one multi-member SCC.
	edges := make([][]int, a.NumBlocks())
	for _, f := range a.ip.fns {
		for _, b := range a.ip.body[f] {
			if ci, ok := a.ip.call(b); ok {
				edges[f] = append(edges[f], ci.callees...)
			}
		}
	}
	sccs := tarjanSCC(a.ip.fns, edges)
	multi := 0
	for _, scc := range sccs {
		if len(scc) > 1 {
			multi++
			if len(scc) != 2 {
				t.Fatalf("mutual recursion SCC has %d members, want 2: %v", len(scc), scc)
			}
		}
	}
	if multi != 1 {
		t.Fatalf("found %d multi-member SCCs, want exactly 1 (even/odd): %v", multi, sccs)
	}

	// Snapshot every instruction's converged masks, re-run the sweep on
	// a freshly built graph, and demand bit-identical masks: the
	// fixpoint is stable, not merely bounded.
	type masks struct{ in, out uint32 }
	snapshot := func() map[uint32]masks {
		m := make(map[uint32]masks)
		for _, seg := range prog.Segments {
			for off := uint32(0); off+4 <= uint32(len(seg.Data)); off += 4 {
				addr := seg.Addr + off
				m[addr] = masks{in: a.LiveIn(addr), out: a.LiveOut(addr)}
			}
		}
		return m
	}
	before := snapshot()
	z := rebuiltAnalyzer(a)
	z.computeLiveness(z.buildInterproc())
	after := snapshot()
	if !reflect.DeepEqual(before, after) {
		t.Fatal("second liveness sweep moved a converged mask")
	}

	// The interprocedural masks must be monotonically contained in the
	// intraprocedural tier's.
	intra := AnalyzeIntra(prog)
	for addr, m := range before {
		if w := m.out &^ intra.LiveOut(addr); w != 0 {
			t.Fatalf("LiveOut(%#x): interprocedural mask %#x wider than intra %#x",
				addr, m.out, intra.LiveOut(addr))
		}
	}
}

// TestResolveRoundCap drives indirect-target resolution past
// maxResolveRounds: each call in the chain is reached, and so resolved,
// only once the call before it has been. The loop stops with the last
// call unresolved and no fold-grade states, and the call graph analyze
// rebuilds is the one of the final CFG.
func TestResolveRoundCap(t *testing.T) {
	n := maxResolveRounds + 1
	src := ".entry main\nk: ret\nmain:\n" + strings.Repeat("la r5, k\njalr r31, r5, 0\n", n) + "li r1, 1\nsyscall\n"
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	a := Analyze(prog)
	got := a.IPStats()
	if got.ResolvedIndirect != maxResolveRounds || got.UnresolvedIndirect != 1 || got.ValuesOK {
		t.Fatalf("IPStats = %+v, want %d resolved, 1 unresolved, no fold-grade values", got, maxResolveRounds)
	}
	if !reflect.DeepEqual(a.ip, rebuiltAnalyzer(a).buildInterproc()) {
		t.Fatal("call graph differs from a fresh build on the final CFG")
	}
}
