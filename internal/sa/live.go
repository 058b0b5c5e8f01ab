package sa

import (
	"superpin/internal/isa"
	"superpin/internal/kernel"
)

// useDef returns the registers read and written by one instruction, as
// masks with the r0 bit stripped (r0 is hardwired and never really live).
// SYSCALL is maximally conservative on the use side: SysSpawn hands the
// child a copy of the whole register file, so every register's value is
// observable at a syscall. computeLiveness refines this for syscalls
// whose number is block-locally provable (see syscallUse).
func useDef(in isa.Inst) (use, def uint32) {
	if in.Op == isa.OpSYSCALL {
		return AllRegs &^ 1, 1 << isa.RegSys
	}
	use = in.SrcRegs() &^ 1
	if d := in.DstReg(); d > 0 {
		def = 1 << uint(d)
	}
	return use, def
}

// syscallUse returns the refined use mask for the SYSCALL that ends
// block id, or the maximal mask when no refinement is possible. SYSCALL
// is a control instruction, so when a block contains one it is always
// the last instruction — the same block-local constant propagation that
// proves terminal exits can prove the syscall number here. A proven
// non-spawn syscall observes only the architectural argument registers
// (r1..r5); an unknown number, or a spawn (which hands the child a copy
// of the whole register file), keeps everything observable.
func (z *analyzer) syscallUse(id int) uint32 {
	b := z.blocks[id]
	if s := z.r1[id]; s.known && s.val != kernel.SysSpawn {
		return z.regions[b.ri].ins[b.end-1].SrcRegs() &^ 1
	}
	return AllRegs &^ 1
}

// computeLiveness runs backward register liveness to a fixpoint over all
// discovered blocks, then fills the per-instruction live-in/live-out
// masks the engine queries.
//
// Conservatism: blocks with statically unknown continuations (indirect
// jumps, returns, calls — whose callees run arbitrary code before the
// continuation resumes) treat every register as live-out. A provably
// terminal exit syscall has nothing live-out. Stored masks always carry
// the r0 bit so a zero mask can mean "not analyzed".
//
// With an interprocedural summary (ip != nil) three transfers sharpen,
// each strictly narrower than the intraprocedural answer, so full-tier
// masks never widen relative to AnalyzeIntra:
//
//   - a resolved call block's live-out is the union of its callees'
//     entry liveness plus the continuation's liveness minus what every
//     callee certainly kills (mustKill), instead of all registers;
//   - a canonical return block's live-out is the union of the
//     continuation liveness at every resolved call site of the
//     functions owning it (retLive), instead of all registers —
//     unless the program is wild, where any call site may be unknown;
//   - a patched indirect jump propagates its targets' liveness like
//     any flow edge (the patched graph makes this the ordinary case).
func (z *analyzer) computeLiveness(ip *ipInfo) {
	n := len(z.blocks)
	if n == 0 {
		return
	}
	// retLive[f]: registers live at some continuation of a resolved
	// call to f — what a return from f must preserve. Recomputed at the
	// top of every sweep from the current liveIn estimates (monotone,
	// so the combined fixpoint is still the least one).
	var retLive []uint32
	if ip != nil {
		retLive = make([]uint32, n)
	}

	liveIn := make([]uint32, n)
	liveOut := make([]uint32, n)
	for changed := true; changed; {
		changed = false
		if ip != nil {
			for _, f := range ip.fns {
				var rl uint32
				if ip.wild {
					rl = AllRegs &^ 1
				} else {
					for _, site := range ip.retSites[f] {
						rl |= liveIn[site]
					}
				}
				retLive[f] = rl
			}
		}
		for id := n - 1; id >= 0; id-- {
			b := z.blocks[id]
			var out uint32
			switch {
			case ip != nil && z.ret[id]:
				if ip.wild || len(ip.owners[id]) == 0 {
					out = AllRegs &^ 1
				} else {
					for _, f := range ip.owners[id] {
						out |= retLive[f]
					}
				}
			case b.conservative:
				out = AllRegs &^ 1
			default:
				if ip != nil {
					if ci, ok := ip.call(id); ok {
						for _, c := range ci.callees {
							out |= liveIn[c]
						}
						if ci.ret >= 0 {
							out |= liveIn[ci.ret] &^ ci.kill
						}
						break
					}
				}
				for _, s := range b.succs {
					out |= liveIn[s]
				}
			}
			in := z.use[id] | (out &^ z.def[id])
			if out != liveOut[id] || in != liveIn[id] {
				liveOut[id], liveIn[id] = out, in
				changed = true
			}
		}
	}

	// Per-instruction masks, by a backward walk through each block.
	for id, b := range z.blocks {
		r := z.regions[b.ri]
		live := liveOut[id]
		for i := b.end - 1; i >= b.start; i-- {
			r.liveOut[i] = live | 1
			u, d := useDef(r.ins[i])
			if i == b.end-1 && r.ins[i].Op == isa.OpSYSCALL {
				u = z.syscallUse(id)
			}
			live = u | (live &^ d)
			r.liveIn[i] = live | 1
		}
	}
}
