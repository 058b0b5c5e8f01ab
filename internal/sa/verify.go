package sa

import (
	"fmt"
	"math/bits"
	"sort"

	"superpin/internal/isa"
)

// verify runs the post-CFG verifier passes. The traversal diagnostics
// (undecodable/bad-target/misaligned/fall-off/truncated) were emitted
// during discovery; this adds the stack-depth dataflow, the
// never-written-register scan, the provable-self-modifying-store scan,
// and the unreachable-bytes summary.
func (a *Analysis) verify() {
	a.verifyStackDepth()
	a.verifyUninitReads()
	a.verifySMCStores()
	a.verifyUnreachable()
}

// verifyInterproc runs the call-graph-aware checks of the
// interprocedural tier (full Analyze only): functions nothing calls,
// and functions that provably return with a shifted stack pointer.
// (The third interprocedural diagnostic, CodeIndirectData, is emitted
// during indirect-target resolution where the provable-but-bad target
// set is in hand.)
func (z *analyzer) verifyInterproc() {
	// called[id]: some resolved call edge targets block id.
	called := make([]bool, len(z.blocks))
	for _, b := range z.blocks {
		for i, s := range b.succs {
			if b.kinds[i] == edgeCall {
				called[s] = true
			}
		}
	}
	z.verifyUnreachableFns(called)
	z.verifyCallBalance(called)
}

// verifyUnreachableFns warns about symbol-labeled, function-shaped
// bodies (they contain a return) that no resolved call edge targets
// and that the entry cannot reach. Suppressed for wild programs, where
// an unresolved transfer could reach anything.
func (z *analyzer) verifyUnreachableFns(called []bool) {
	a := z.Analysis
	if z.ip.wild || a.entryBlock < 0 {
		return
	}
	// Blocks reachable from the entry over any edge kind.
	reach := make([]bool, len(a.blocks))
	stack := []int{a.entryBlock}
	reach[a.entryBlock] = true
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range a.blocks[id].succs {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	// Symbol names sorted for deterministic diagnostic order.
	names := make([]string, 0, len(a.prog.Symbols))
	for name := range a.prog.Symbols { //detguard:ok sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		addr := a.prog.Symbols[name]
		sb := a.blockAt(addr)
		if sb == nil || a.regions[sb.ri].wordAddr(sb.start) != addr {
			continue
		}
		id := int(a.regions[sb.ri].blockOf[sb.start])
		if id == a.entryBlock || called[id] || reach[id] {
			continue
		}
		if len(z.ip.retBlks[id]) == 0 {
			continue // not function shaped (data that decodes, a raw loop)
		}
		a.diags = append(a.diags, Diag{Sev: SevWarn, Code: CodeUnreachableFn, Addr: addr,
			Msg: fmt.Sprintf("function %q is never called and unreachable from the entry", name)})
	}
}

// verifyCallBalance runs the per-function stack-delta dataflow: from
// depth 0 at the function entry, `addi sp, sp, imm` moves the depth,
// any other sp write poisons it, and resolved calls are assumed
// balanced. A canonical return reached with a provably nonzero delta
// means callers resume with a shifted stack. Only functions some
// resolved call edge targets are checked: a symbol-labeled leader
// inside a function (a loop head, say) is a function entry to the call
// graph, but it holds only part of its function's frame.
func (z *analyzer) verifyCallBalance(called []bool) {
	a := z.Analysis
	// depth is indexed by block id; inBody marks the current function's
	// body and is cleared after each function.
	depth := make([]int32, len(a.blocks))
	inBody := make([]bool, len(a.blocks))
	for _, f := range z.ip.fns {
		if !called[f] || z.ip.wildFn[f] {
			continue
		}
		for _, id := range z.ip.body[f] {
			depth[id] = depthUnset
			inBody[id] = true
		}
		depth[f] = 0
		work := []int{f}
		for len(work) > 0 {
			id := work[len(work)-1]
			work = work[:len(work)-1]
			b := a.blocks[id]
			r := a.regions[b.ri]
			out := depth[id]
			for i := b.start; i < b.end; i++ {
				ins := r.ins[i]
				if ins.Op == isa.OpADDI && ins.Rd == isa.RegSP && ins.Rs1 == isa.RegSP {
					if out > depthConflict {
						out -= ins.Imm
					}
				} else if ins.DstReg() == isa.RegSP {
					out = depthConflict
				}
			}
			for i, s := range b.succs {
				if b.kinds[i] == edgeCall {
					continue
				}
				if !inBody[s] {
					continue
				}
				cur := depth[s]
				switch {
				case cur == depthUnset:
					depth[s] = out
					work = append(work, s)
				case cur == out || cur == depthConflict:
				default:
					depth[s] = depthConflict
					work = append(work, s)
				}
			}
		}
		for _, id := range z.ip.body[f] {
			inBody[id] = false
		}
		for _, id := range z.ip.retBlks[f] {
			d := depth[id] // return blocks lie in the body
			if d == depthUnset || d == depthConflict {
				continue
			}
			b := a.blocks[id]
			r := a.regions[b.ri]
			net := d
			for i := b.start; i < b.end; i++ {
				ins := r.ins[i]
				if ins.Op == isa.OpADDI && ins.Rd == isa.RegSP && ins.Rs1 == isa.RegSP {
					if net > depthConflict {
						net -= ins.Imm
					}
				} else if ins.DstReg() == isa.RegSP {
					net = depthConflict
				}
			}
			if net != 0 && net > depthConflict {
				fb := a.blocks[f]
				a.diags = append(a.diags, Diag{Sev: SevWarn, Code: CodeCallImbalance,
					Addr: r.wordAddr(b.end - 1),
					Msg: fmt.Sprintf("function at %#08x returns with net stack delta %d",
						a.regions[fb.ri].wordAddr(fb.start), net)})
			}
		}
	}
}

// Stack-depth lattice values beyond a known depth.
const (
	depthUnset    = -1 << 30 // block not yet visited
	depthConflict = -1<<30 + 1
)

// verifyStackDepth runs a forward stack-depth dataflow over the
// entry-reachable blocks: the entry starts at depth 0, `addi sp, sp, imm`
// moves the depth, any other write to sp makes it unknown, and calls are
// assumed balanced (a callee entry restarts at 0; the return site
// continues at the caller's depth). Joins that disagree degrade to
// "unknown" silently — except on a back edge (the target dominates the
// source), where a disagreement means the loop body accumulates net
// stack depth on every iteration: a stack-imbalanced loop, reported as
// an error.
func (a *Analysis) verifyStackDepth() {
	if a.entryBlock < 0 {
		return
	}
	in := make([]int32, len(a.blocks))
	for i := range in {
		in[i] = depthUnset
	}
	in[a.entryBlock] = 0
	work := []int{a.entryBlock}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		b := a.blocks[id]
		r := a.regions[b.ri]
		out := in[id]
		for i := b.start; i < b.end; i++ {
			ins := r.ins[i]
			if ins.Op == isa.OpADDI && ins.Rd == isa.RegSP && ins.Rs1 == isa.RegSP {
				if out > depthConflict {
					out -= ins.Imm // pushes are negative immediates
				}
			} else if ins.DstReg() == isa.RegSP {
				out = depthConflict
			}
		}
		for ei, s := range b.succs {
			next := out
			if b.kinds[ei] == edgeCall {
				next = 0 // a callee tracks its own frame
			}
			cur := in[s]
			switch {
			case cur == depthUnset:
				in[s] = next
				work = append(work, s)
			case cur == next || cur == depthConflict:
				// settled
			case next == depthConflict:
				in[s] = depthConflict
				work = append(work, s)
			default:
				// Known-vs-known disagreement. On a back edge this is a
				// loop that shifts sp every iteration; elsewhere it is
				// just an irregular (but finite) join, degraded silently.
				if a.dominates(s, id) {
					sb := a.blocks[s]
					a.diags = append(a.diags, Diag{Sev: SevError, Code: CodeStackImbalance,
						Addr: a.regions[b.ri].wordAddr(b.end - 1),
						Msg: fmt.Sprintf("loop back edge to %#08x carries stack depth %d, header entered at %d",
							a.regions[sb.ri].wordAddr(sb.start), next, cur)})
				}
				in[s] = depthConflict
				work = append(work, s)
			}
		}
	}
}

// verifyUninitReads warns about registers that reachable code reads but
// that nothing in the program ever writes. The loader initializes r0
// (hardwired) and sp, so those are exempt; everything else starts as
// whatever the kernel zeroed it to, which working programs should not
// depend on.
//
// A SYSCALL counts as reading only r1 (the number itself, always
// read): which argument registers it reads depends on the number, and
// counting them all would flag every never-written register in any
// program that exits.
func (a *Analysis) verifyUninitReads() {
	var read, written uint32
	var firstRead [isa.NumRegs]uint32
	for _, b := range a.blocks {
		if !b.entryReach {
			continue
		}
		r := a.regions[b.ri]
		for i := b.start; i < b.end; i++ {
			u := r.ins[i].SrcRegs() &^ 1
			if r.ins[i].Op == isa.OpSYSCALL {
				u = 1 << isa.RegSys
			}
			for m := u &^ read; m != 0; m &= m - 1 {
				firstRead[bits.TrailingZeros32(m)] = r.wordAddr(i)
			}
			read |= u
			if d := r.ins[i].DstReg(); d > 0 {
				written |= 1 << uint(d)
			}
		}
	}
	written |= 1 | 1<<isa.RegSP
	for m := read &^ written; m != 0; m &= m - 1 {
		reg := bits.TrailingZeros32(m)
		a.diags = append(a.diags, Diag{Sev: SevWarn, Code: CodeUninitRead, Addr: firstRead[reg],
			Msg: fmt.Sprintf("r%d is read but never written anywhere in the program", reg)})
	}
}

// verifySMCStores flags stores whose target address is statically
// provable (block-local lui/ori/addi constant propagation — the La
// idiom) and lies inside discovered code. The engine executes
// self-modifying code correctly, so this is a warning, not an error.
func (a *Analysis) verifySMCStores() {
	for _, b := range a.blocks {
		if !b.entryReach {
			continue
		}
		r := a.regions[b.ri]
		var known uint32 = 1 // r0 is the constant 0
		var vals [isa.NumRegs]uint32
		for i := b.start; i < b.end; i++ {
			ins := r.ins[i]
			if ins.Op.IsStore() && known&(1<<ins.Rs1) != 0 {
				ea := vals[ins.Rs1] + uint32(ins.Imm)
				if ri, wi, ok := a.locate(ea &^ (isa.WordSize - 1)); ok && a.regions[ri].reach[wi] != reachNone {
					a.diags = append(a.diags, Diag{Sev: SevWarn, Code: CodeSMCStore,
						Addr: r.wordAddr(i),
						Msg:  fmt.Sprintf("store provably targets code at %#08x (self-modifying code)", ea)})
				}
			}
			d := ins.DstReg()
			if d <= 0 {
				continue
			}
			rd := uint8(d)
			switch {
			case ins.Op == isa.OpLUI:
				vals[rd] = uint32(ins.Imm) << 16
				known |= 1 << rd
			case ins.Op == isa.OpORI && known&(1<<ins.Rs1) != 0:
				vals[rd] = vals[ins.Rs1] | uint32(ins.Imm)
				known |= 1 << rd
			case ins.Op == isa.OpADDI && known&(1<<ins.Rs1) != 0:
				vals[rd] = vals[ins.Rs1] + uint32(ins.Imm)
				known |= 1 << rd
			default:
				known &^= 1 << rd
			}
		}
	}
}

// verifyUnreachable emits one summary warning counting image words that
// are neither discovered code nor valid encodings — likely data, but
// possibly rot; either way nothing the verifier can vouch for.
func (a *Analysis) verifyUnreachable() {
	count := 0
	var first uint32
	for _, r := range a.regions {
		for i := 0; i < r.words(); i++ {
			if r.reach[i] == reachNone && !r.ok[i] {
				if count == 0 {
					first = r.wordAddr(i)
				}
				count++
			}
		}
	}
	if count > 0 {
		a.diags = append(a.diags, Diag{Sev: SevWarn, Code: CodeUnreachable, Addr: first,
			Msg: fmt.Sprintf("%d unreachable word(s) do not decode (data or rot; first at %#08x)", count, first)})
	}
}
