// Call-graph recovery and per-function summaries for the
// interprocedural tier (DESIGN §11).
//
// Functions are discovered structurally: the program entry, every
// resolved call-edge target (direct jal calls plus jalr calls patched
// by the value analysis), and every symbol that labels a discovered
// block leader. A function's body is the closure of its entry over
// flow and call-continuation edges — call edges leave the function, so
// a callee's blocks are not its caller's (though bodies may share
// blocks when code is reached both ways).
//
// mayDef[f], the registers f may modify transitively through its
// callees, is a least fixpoint over the strongly connected components
// of the call graph, callees first, ascending from the empty set; any
// statically unknown control inside the body (an unresolved call, a cut
// run) degrades it to all registers. SCCP consumes it: a call's return
// edge re-enters the caller with the callee's mayDef set unknown.
package sa

import (
	"slices"
	"sort"

	"superpin/internal/isa"
)

// allRegs is the register mask with every bit set.
const allRegs = ^uint32(0)

// defMask returns the registers one instruction writes, with the r0 bit
// stripped (r0 is hardwired). A SYSCALL writes its result to r1.
func defMask(in isa.Inst) uint32 {
	if in.Op == isa.OpSYSCALL {
		return 1 << isa.RegSys
	}
	if d := in.DstReg(); d > 0 {
		return 1 << uint(d)
	}
	return 0
}

// ipInfo is the call graph of the interprocedural tier. Every table is
// dense, indexed by block id; the per-function ones hold data only at
// function entries.
type ipInfo struct {
	fns     []int    // function entry block ids, sorted
	body    [][]int  // fn → body block ids (sorted)
	mayDef  []uint32 // fn → may-modify mask (r0 stripped)
	wildFn  []bool   // fn body contains statically unknown control
	retBlks [][]int  // fn → canonical return blocks in its body
	wild    bool     // whole-program wildness (classifyWild)
}

// buildInterproc recovers the call graph over the current (possibly
// patched) CFG and computes the function summaries.
func (z *analyzer) buildInterproc() *ipInfo {
	n := len(z.blocks)
	ip := &ipInfo{
		body:    make([][]int, n),
		mayDef:  make([]uint32, n),
		wildFn:  make([]bool, n),
		retBlks: make([][]int, n),
	}

	// Function entries: program entry, call-edge targets, symbol-labeled
	// leaders.
	isFn := make([]bool, n)
	if e := z.entryBlockID(); e >= 0 {
		isFn[e] = true
	}
	for _, b := range z.blocks {
		for i, s := range b.succs {
			if b.kinds[i] == edgeCall {
				isFn[s] = true
			}
		}
	}
	for _, addr := range z.prog.Symbols { //detguard:ok set insertion only
		if sb := z.blockAt(addr); sb != nil {
			if z.regions[sb.ri].wordAddr(sb.start) == addr {
				isFn[z.regions[sb.ri].blockOf[sb.start]] = true
			}
		}
	}
	for f, ok := range isFn {
		if ok {
			ip.fns = append(ip.fns, f)
		}
	}

	// Bodies and the call multigraph. mark[id] == f+1 tags the blocks
	// of f's walk.
	callees := make([][]int, n) // fn → callee fns (with duplicates)
	mark := make([]int, n)
	var body, stack []int
	for _, f := range ip.fns {
		body = body[:0]
		stack = append(stack[:0], f)
		mark[f] = f + 1
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			body = append(body, id)
			b := z.blocks[id]
			if b.conservative && !z.ret[id] {
				ip.wildFn[f] = true
			}
			if z.ret[id] {
				ip.retBlks[f] = append(ip.retBlks[f], id)
			}
			for i, s := range b.succs {
				if b.kinds[i] == edgeCall {
					if !b.conservative {
						callees[f] = append(callees[f], s)
					}
					continue
				}
				if mark[s] != f+1 {
					mark[s] = f + 1
					stack = append(stack, s)
				}
			}
		}
		sort.Ints(body)
		ip.body[f] = slices.Clone(body)
		sort.Ints(ip.retBlks[f])
	}

	// mayDef: least fixpoint over the SCCs, callees first, ascending
	// from empty.
	for _, scc := range tarjanSCC(ip.fns, callees) {
		for stable := false; !stable; {
			stable = true
			for _, f := range scc {
				md := uint32(0)
				if ip.wildFn[f] {
					md = allRegs &^ 1
				}
				for _, id := range ip.body[f] {
					md |= z.def[id]
				}
				for _, c := range callees[f] {
					md |= ip.mayDef[c]
				}
				if md != ip.mayDef[f] {
					ip.mayDef[f] = md
					stable = false
				}
			}
		}
	}

	ip.wild = z.classifyWild()
	return ip
}

// tarjanSCC returns the strongly connected components of the call
// graph restricted to nodes, in Tarjan emission order (every SCC
// before any SCC that calls into it — callees first). edges is indexed
// by node id and covers every node. Deterministic: nodes are visited
// in the given (sorted) order and edge lists preserve discovery order.
func tarjanSCC(nodes []int, edges [][]int) [][]int {
	index := make([]int, len(edges)) // 0 = unvisited; visit numbers start at 1
	lowlink := make([]int, len(edges))
	onStack := make([]bool, len(edges))
	var stack []int
	var sccs [][]int
	next := 1

	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = next
		lowlink[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range edges[v] {
			if index[w] == 0 {
				strongconnect(w)
				lowlink[v] = min(lowlink[v], lowlink[w])
			} else if onStack[w] {
				lowlink[v] = min(lowlink[v], index[w])
			}
		}
		if lowlink[v] == index[v] {
			var scc []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Ints(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if index[v] == 0 {
			strongconnect(v)
		}
	}
	return sccs
}

// calleeMayDefs returns the per-block may-define masks the SCCP return
// edges consume: a function entry's mayDef, or every register when its
// body is wild or the block is no function entry.
func (ip *ipInfo) calleeMayDefs() []uint32 {
	out := make([]uint32, len(ip.mayDef))
	for i := range out {
		out[i] = allRegs
	}
	for _, f := range ip.fns {
		if !ip.wildFn[f] {
			out[f] = ip.mayDef[f]
		}
	}
	return out
}
