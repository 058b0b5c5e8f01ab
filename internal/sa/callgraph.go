// Call-graph recovery and per-function register summaries for the
// interprocedural liveness tier (DESIGN §11).
//
// Functions are discovered structurally: the program entry, every
// resolved call-edge target (direct jal calls plus jalr calls patched
// by the value analysis), and every symbol that labels a discovered
// block leader. A function's body is the closure of its entry over
// flow and call-continuation edges — call edges leave the function, so
// a callee's blocks are not its caller's (though bodies may share
// blocks when code is reached both ways).
//
// Two summaries are computed as fixpoints over the strongly connected
// components of the call graph, callees first:
//
//   - mayDef[f]: registers f may modify, transitively through callees.
//     A least fixpoint from the empty set; any statically unknown
//     control inside the body (an unresolved call, a cut run) degrades
//     it to all registers.
//   - mustKill[f]: registers f certainly overwrites on every path from
//     entry to any of its returns, again through callees. A greatest
//     fixpoint from the full set (sound for mutual recursion: the
//     intersection only descends), with a forward must-dataflow inside
//     each body.
//
// Interprocedural liveness consumes both: at a resolved call site the
// registers live across the call are the callee's entry liveness plus
// the continuation's liveness minus what every callee certainly kills;
// at a return block, the union of the continuation liveness of every
// resolved call site of the owning functions.
package sa

import (
	"slices"
	"sort"
)

// callInfo caches a resolved call block's shape for the liveness
// transfer.
type callInfo struct {
	callees []int  // callee function entry block ids
	ret     int    // continuation block id, -1 when off-image
	kill    uint32 // ∩ mustKill over callees
}

// ipInfo is the interprocedural summary attached to a full Analysis.
// Every table is dense, indexed by block id; the per-function ones hold
// data only at function entries.
type ipInfo struct {
	fns      []int      // function entry block ids, sorted
	body     [][]int    // fn → body block ids (sorted)
	owners   [][]int    // return block id → owning fn entries (sorted)
	mayDef   []uint32   // fn → may-modify mask (r0 stripped)
	mustKill []uint32   // fn → certain-kill mask (r0 stripped)
	wildFn   []bool     // fn body contains statically unknown control
	callAt   []callInfo // resolved call block id → shape (nil callees elsewhere)
	retSites [][]int    // fn → continuation block ids of its call sites
	retBlks  [][]int    // fn → canonical return blocks in its body
	wild     bool       // whole-program wildness (classifyWild)
}

// call returns the shape of block id when it is a resolved call.
func (ip *ipInfo) call(id int) (callInfo, bool) {
	ci := ip.callAt[id]
	return ci, ci.callees != nil
}

// buildInterproc recovers the call graph over the current (possibly
// patched) CFG and computes the function summaries.
func (z *analyzer) buildInterproc() *ipInfo {
	n := len(z.blocks)
	ip := &ipInfo{
		body:     make([][]int, n),
		owners:   make([][]int, n),
		mayDef:   make([]uint32, n),
		mustKill: make([]uint32, n),
		wildFn:   make([]bool, n),
		callAt:   make([]callInfo, n),
		retSites: make([][]int, n),
		retBlks:  make([][]int, n),
	}
	if z.mark == nil {
		z.mark, z.kin = make([]int, n), make([]uint32, n)
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

	// Bodies, per-block call shapes, and the call multigraph.
	callees := make([][]int, n) // fn → callee fns (with duplicates)
	var body []int
	for _, f := range ip.fns {
		body = body[:0]
		seen := z.nextGen()
		stack := append(z.work[:0], f)
		z.mark[f] = seen
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
			isCall := false
			for i := range b.succs {
				if b.kinds[i] == edgeCall {
					isCall = true
				}
			}
			if isCall && !b.conservative {
				ci := callInfo{ret: -1}
				for i, s := range b.succs {
					if b.kinds[i] == edgeCall {
						ci.callees = append(ci.callees, s)
						callees[f] = append(callees[f], s)
					} else {
						ci.ret = s
					}
				}
				ip.callAt[id] = ci
			}
			for i, s := range b.succs {
				if b.kinds[i] == edgeCall {
					continue
				}
				if z.mark[s] != seen {
					z.mark[s] = seen
					stack = append(stack, s)
				}
			}
		}
		z.work = stack
		sort.Ints(body)
		ip.body[f] = slices.Clone(body)
		sort.Ints(ip.retBlks[f])
	}
	for _, f := range ip.fns {
		for _, id := range ip.retBlks[f] {
			ip.owners[id] = append(ip.owners[id], f)
		}
	}
	for id := range ip.callAt {
		ci, ok := ip.call(id)
		if !ok || ci.ret < 0 {
			continue
		}
		for _, c := range ci.callees {
			ip.retSites[c] = append(ip.retSites[c], ci.ret)
		}
	}

	// SCCs of the call graph, callees first (Tarjan emission order).
	sccs := tarjanSCC(ip.fns, callees)

	// mayDef: least fixpoint, ascending from empty.
	for _, scc := range sccs {
		for stable := false; !stable; {
			stable = true
			for _, f := range scc {
				md := uint32(0)
				if ip.wildFn[f] {
					md = AllRegs &^ 1
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

	// mustKill: greatest fixpoint, descending from all registers.
	for _, f := range ip.fns {
		ip.mustKill[f] = AllRegs &^ 1
	}
	for _, scc := range sccs {
		for stable := false; !stable; {
			stable = true
			for _, f := range scc {
				mk := z.fnMustKill(ip, f)
				if mk != ip.mustKill[f] {
					ip.mustKill[f] = mk
					stable = false
				}
			}
		}
	}

	// Call-site kill masks, now that mustKill has settled.
	for id := range ip.callAt {
		ci, ok := ip.call(id)
		if !ok {
			continue
		}
		ci.kill = AllRegs &^ 1
		for _, c := range ci.callees {
			ci.kill &= ip.mustKill[c]
		}
		ip.callAt[id] = ci
	}

	ip.wild = z.classifyWild()
	return ip
}

// fnMustKill runs the forward certain-kill dataflow over one function
// body using the current mustKill estimates for callees.
func (z *analyzer) fnMustKill(ip *ipInfo, f int) uint32 {
	if ip.wildFn[f] {
		// Statically unknown control inside the body: nothing is
		// certainly overwritten on the way to a return.
		return 0
	}
	const unvisited = ^uint32(0) // ⊤ of the must lattice
	// kin[id] is live only for this body's blocks, which mark[id] ==
	// inBody identifies.
	inBody := z.nextGen()
	kin := z.kin
	for _, id := range ip.body[f] {
		kin[id] = unvisited
		z.mark[id] = inBody
	}
	kin[f] = 0
	work := append(z.work[:0], f)
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		b := z.blocks[id]
		kout := kin[id] | z.def[id]
		for i, s := range b.succs {
			if b.kinds[i] == edgeCall {
				continue
			}
			cand := kout
			if b.kinds[i] == edgeRet {
				if ci, ok := ip.call(id); ok {
					kill := AllRegs &^ 1
					for _, c := range ci.callees {
						kill &= ip.mustKill[c]
					}
					cand |= kill
				}
				// An unresolved call's continuation gains nothing: the
				// unknown callee may kill no registers at all.
			}
			if z.mark[s] == inBody {
				old := kin[s]
				nv := old & cand
				if nv != old {
					kin[s] = nv
					work = append(work, s)
				}
			}
		}
	}
	z.work = work
	rets := ip.retBlks[f]
	if len(rets) == 0 {
		// A function that never returns kills everything vacuously.
		return AllRegs &^ 1
	}
	mk := AllRegs &^ 1
	for _, id := range rets {
		if kin[id] == unvisited {
			continue // return block unreachable from the entry inside this body
		}
		mk &= kin[id] | z.def[id]
	}
	return mk
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
		out[i] = AllRegs
	}
	for _, f := range ip.fns {
		if !ip.wildFn[f] {
			out[f] = ip.mayDef[f]
		}
	}
	return out
}
