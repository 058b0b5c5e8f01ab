package sa

import (
	"reflect"
	"strings"
	"testing"

	"superpin/internal/asm"
	"superpin/internal/isa"
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

// callGraph recovers the function-level call multigraph of ip from the
// final CFG: the resolved call edges leaving each function's body.
func callGraph(z *analyzer) [][]int {
	edges := make([][]int, len(z.blocks))
	for _, f := range z.ip.fns {
		for _, id := range z.ip.body[f] {
			b := z.blocks[id]
			for i, s := range b.succs {
				if b.kinds[i] == edgeCall && !b.conservative {
					edges[f] = append(edges[f], s)
				}
			}
		}
	}
	return edges
}

// TestSCCFixpointConverges analyzes a mutually recursive program and
// pins the mayDef fixpoint: the mutual-recursion SCC is recovered as
// one multi-member component, its members share one may-define set
// (each reaches the other), and a second call-graph build over the
// converged CFG reproduces every summary (a true fixpoint).
func TestSCCFixpointConverges(t *testing.T) {
	prog, err := asm.Assemble(mutualSrc)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	z := analyze(prog, true)
	if z.Err() != nil {
		t.Fatalf("analyze: %v", z.Err())
	}
	if z.ip == nil {
		t.Fatal("full analysis built no call graph")
	}

	var pair []int
	for _, scc := range tarjanSCC(z.ip.fns, callGraph(z)) {
		if len(scc) > 1 {
			if pair != nil {
				t.Fatalf("found a second multi-member SCC %v, want only even/odd", scc)
			}
			pair = scc
		}
	}
	if len(pair) != 2 {
		t.Fatalf("mutual recursion SCC = %v, want exactly even/odd", pair)
	}
	// even and odd each write r10 and r11, and their calls write lr.
	want := uint32(1<<10 | 1<<11 | 1<<isa.RegLR)
	for _, f := range pair {
		if got := z.ip.mayDef[f]; got != want {
			t.Errorf("mayDef[%d] = %#x, want %#x", f, got, want)
		}
	}
	if !reflect.DeepEqual(z.ip, rebuiltAnalyzer(z.Analysis).buildInterproc()) {
		t.Fatal("a second call-graph build moved a converged summary")
	}
}

// TestResolveRoundCap drives indirect-target resolution past
// maxResolveRounds: each call in the chain is reached, and so resolved,
// only once the call before it has been. The loop stops with the last
// call unresolved, and the call graph analyze rebuilds is the one of
// the final CFG.
func TestResolveRoundCap(t *testing.T) {
	n := maxResolveRounds + 1
	src := ".entry main\nk: ret\nmain:\n" + strings.Repeat("la r5, k\njalr r31, r5, 0\n", n) + "li r1, 1\nsyscall\n"
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	z := analyze(prog, true)
	resolved, unresolved := 0, 0
	for _, id := range z.indirectBlocks() {
		if z.blocks[id].conservative {
			unresolved++
		} else {
			resolved++
		}
	}
	if resolved != maxResolveRounds || unresolved != 1 {
		t.Fatalf("%d resolved, %d unresolved indirect calls; want %d and 1", resolved, unresolved, maxResolveRounds)
	}
	if !reflect.DeepEqual(z.ip, rebuiltAnalyzer(z.Analysis).buildInterproc()) {
		t.Fatal("call graph differs from a fresh build on the final CFG")
	}
}
