package sa

import (
	"encoding/binary"
	"fmt"
	"sort"

	"superpin/internal/cpu"
	"superpin/internal/isa"
	"superpin/internal/kernel"
)

// buildRegions flattens the image segments into word-aligned decodable
// regions. Segments keep their byte-addressed layout; instruction fetch
// requires word alignment, so each region covers the absolute-aligned
// words inside its segment, and any leading or trailing partial bytes
// are tracked for the truncation diagnostics.
func (a *Analysis) buildRegions() {
	for _, seg := range a.prog.Segments {
		start := (seg.Addr + isa.WordSize - 1) &^ (isa.WordSize - 1)
		off := int(start - seg.Addr)
		if off >= len(seg.Data) {
			continue
		}
		n := (len(seg.Data) - off) / isa.WordSize
		r := &region{
			addr:    start,
			ins:     make([]isa.Inst, n),
			ok:      make([]bool, n),
			pre:     make([]cpu.BlockIns, n),
			reach:   make([]uint8, n),
			leader:  make([]bool, n),
			blockOf: make([]int32, n),
			tail:    len(seg.Data) - off - n*isa.WordSize,
		}
		for i := 0; i < n; i++ {
			r.blockOf[i] = -1
			w := binary.LittleEndian.Uint32(seg.Data[off+i*isa.WordSize:])
			in, err := isa.Decode(w)
			if err == nil {
				r.ins[i] = in
				r.ok[i] = true
			}
			r.pre[i] = cpu.BlockIns{Inst: r.ins[i], Next: r.wordAddr(i) + isa.WordSize}
		}
		a.regions = append(a.regions, r)
	}
	sort.Slice(a.regions, func(i, j int) bool { return a.regions[i].addr < a.regions[j].addr })
}

// succ is one direct control-flow successor of a terminator.
type succ struct {
	addr uint32
	kind edgeKind
}

// successors resolves the direct successors of the instruction at addr.
// conservative reports that the full successor set is not statically
// known (indirect transfers, calls — the callee's behavior is opaque).
// terminal reports that execution provably ends here (an exit syscall).
// r1 carries the block-local constant state of the syscall-number
// register at the instruction, from trackR1.
func successors(in isa.Inst, addr uint32, r1 r1State) (out []succ, conservative, terminal bool) {
	next := addr + isa.WordSize
	switch {
	case in.Op.IsCondBranch():
		return []succ{
			{next + uint32(in.Imm)*isa.WordSize, edgeFlow},
			{next, edgeFlow},
		}, false, false
	case in.Op == isa.OpJAL:
		target := next + uint32(in.Imm)*isa.WordSize
		if in.Rd == isa.RegZero {
			return []succ{{target, edgeFlow}}, false, false
		}
		// A call: the callee entry is known, and the return continuation
		// is the fall-through under the balanced-call assumption — but
		// what the callee does in between is not modeled.
		return []succ{{target, edgeCall}, {next, edgeRet}}, true, false
	case in.Op == isa.OpJALR:
		if in.Rd == isa.RegZero {
			return nil, true, false // return or indirect jump
		}
		return []succ{{next, edgeRet}}, true, false // indirect call
	case in.Op == isa.OpSYSCALL:
		if r1.known && r1.val == kernel.SysExit {
			return nil, false, true
		}
		return []succ{{next, edgeFlow}}, false, false
	}
	return []succ{{next, edgeFlow}}, false, false
}

// r1State is the block-local constant-propagation state of r1 (the
// syscall-number register), used to prove that a SYSCALL is an exit.
type r1State struct {
	known bool
	val   uint32
}

// trackR1 folds one instruction into the r1 constant state.
func trackR1(s r1State, in isa.Inst) r1State {
	if in.DstReg() != isa.RegSys {
		return s
	}
	switch in.Op {
	case isa.OpADDI:
		if in.Rs1 == isa.RegZero {
			return r1State{true, uint32(in.Imm)}
		}
		if in.Rs1 == isa.RegSys && s.known {
			return r1State{true, s.val + uint32(in.Imm)}
		}
	case isa.OpORI:
		if in.Rs1 == isa.RegZero {
			return r1State{true, uint32(in.Imm)}
		}
		if in.Rs1 == isa.RegSys && s.known {
			return r1State{true, s.val | uint32(in.Imm)}
		}
	case isa.OpLUI:
		return r1State{true, uint32(in.Imm) << 16}
	}
	return r1State{}
}

// discover performs code discovery: a breadth-first traversal of
// straight-line runs from the entry point (with full diagnostics), then
// from every symbol not already covered (silently — symbols may label
// data that happens to decode, so findings there would be noise). Every
// traversal start and every resolved control target becomes a block
// leader.
func (a *Analysis) discover() {
	if len(a.regions) == 0 {
		a.diags = append(a.diags, Diag{Sev: SevError, Code: CodeBadTarget,
			Addr: a.prog.Entry, Msg: "image has no decodable words"})
		return
	}
	if a.prog.Entry%isa.WordSize != 0 {
		a.diags = append(a.diags, Diag{Sev: SevError, Code: CodeMisaligned,
			Addr: a.prog.Entry, Msg: "entry point is not word aligned"})
		return
	}
	if _, _, ok := a.locate(a.prog.Entry); !ok {
		a.diags = append(a.diags, Diag{Sev: SevError, Code: CodeBadTarget,
			Addr: a.prog.Entry, Msg: "entry point is outside the image"})
		return
	}
	a.traverse(a.prog.Entry, reachEntry)

	// Symbol roots: kernels and helper routines reached only through
	// indirect calls (the workloads' LW+JALR dispatch) are still labeled,
	// so the symbol table recovers them for the verifier. Sorted for
	// determinism.
	syms := make([]uint32, 0, len(a.prog.Symbols))
	for _, addr := range a.prog.Symbols { //detguard:ok sorted below
		syms = append(syms, addr)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
	for _, addr := range syms {
		if ri, wi, ok := a.locate(addr); ok && a.regions[ri].reach[wi] == reachNone {
			a.traverse(addr, reachSym)
		}
	}
}

// traverse walks straight-line runs from root, marking words with the
// given reach level, recording leaders, and (at reachEntry level)
// emitting diagnostics for malformed control flow.
func (a *Analysis) traverse(root uint32, level uint8) {
	loud := level == reachEntry
	work := []uint32{root}
	enqueue := func(addr uint32) {
		work = append(work, addr)
	}
	for len(work) > 0 {
		addr := work[len(work)-1]
		work = work[:len(work)-1]
		ri, wi, ok := a.locate(addr)
		if !ok {
			continue // diagnosed by whoever resolved the target
		}
		r := a.regions[ri]
		if r.reach[wi] >= level {
			r.leader[wi] = true
			continue
		}
		r.leader[wi] = true
		r1 := r1State{}
		for {
			if r.reach[wi] >= level {
				break // ran into an already-covered run
			}
			if !r.ok[wi] {
				if loud {
					a.diags = append(a.diags, Diag{Sev: SevError, Code: CodeUndecodable,
						Addr: r.wordAddr(wi), Msg: "reachable word is not a valid instruction"})
				}
				break
			}
			r.reach[wi] = level
			in := r.ins[wi]
			iaddr := r.wordAddr(wi)
			if in.Op.EndsBlock() {
				succs, _, _ := successors(in, iaddr, r1)
				for _, s := range succs {
					if a.resolveTarget(iaddr, in, s.addr, loud) {
						enqueue(s.addr)
					}
				}
				break
			}
			r1 = trackR1(r1, in)
			wi++
			if wi >= r.words() {
				if loud {
					a.fallOffDiag(r, iaddr)
				}
				break
			}
		}
	}
}

// resolveTarget validates one direct control target, emitting the
// bad-target/misaligned/fall-off diagnostics when loud, and reports
// whether the target is a word inside the image.
func (a *Analysis) resolveTarget(from uint32, in isa.Inst, target uint32, loud bool) bool {
	if target%isa.WordSize != 0 {
		if loud {
			a.diags = append(a.diags, Diag{Sev: SevError, Code: CodeMisaligned, Addr: from,
				Msg: fmt.Sprintf("%v target %#08x is not word aligned", in.Op, target)})
		}
		return false
	}
	if _, _, ok := a.locate(target); !ok {
		if loud {
			if target == from+isa.WordSize {
				// Fall-through off the image: a non-terminal SYSCALL (or a
				// call's return site) continuing past the last word. The
				// syscall might never return (the number is only unknown
				// statically), so this is a warning; everything else is an
				// error handled by fallOffDiag.
				if in.Op == isa.OpSYSCALL {
					a.diags = append(a.diags, Diag{Sev: SevWarn, Code: CodeFallOff, Addr: from,
						Msg: "syscall with a statically unknown number falls off the image"})
					return false
				}
				if ri, _, ok := a.locate(from); ok {
					a.fallOffDiag(a.regions[ri], from)
					return false
				}
			}
			a.diags = append(a.diags, Diag{Sev: SevError, Code: CodeBadTarget, Addr: from,
				Msg: fmt.Sprintf("%v target %#08x is outside the image", in.Op, target)})
		}
		return false
	}
	return true
}

// fallOffDiag reports control flow running past the last whole word at
// iaddr: a truncation error when partial trailing bytes exist, a plain
// fall-off error otherwise.
func (a *Analysis) fallOffDiag(r *region, iaddr uint32) {
	if r.tail > 0 {
		a.diags = append(a.diags, Diag{Sev: SevError, Code: CodeTruncated, Addr: iaddr,
			Msg: fmt.Sprintf("control flow reaches trailing %d-byte fragment of a truncated image", r.tail)})
		return
	}
	a.diags = append(a.diags, Diag{Sev: SevError, Code: CodeFallOff, Addr: iaddr,
		Msg: "control flow falls off the end of the image"})
}

// buildBlocks partitions the discovered code into basic blocks and
// resolves their direct successor edges. It returns, per block ending
// in a control instruction, the syscall-number state before it.
func (a *Analysis) buildBlocks() []r1State {
	for ri, r := range a.regions {
		for wi := 0; wi < r.words(); {
			if r.reach[wi] == reachNone || !r.ok[wi] {
				wi++
				continue
			}
			b := &block{ri: ri, start: wi, entryReach: r.reach[wi] == reachEntry}
			id := len(a.blocks)
			for {
				r.blockOf[wi] = int32(id)
				ends := r.ins[wi].Op.EndsBlock()
				wi++
				if ends || wi >= r.words() || r.reach[wi] == reachNone || !r.ok[wi] || r.leader[wi] {
					break
				}
			}
			b.end = wi
			a.blocks = append(a.blocks, b)
		}
	}
	// Resolve edges. A terminal syscall block has no successors; blocks
	// whose run ended without a terminator (undecodable word, image end)
	// have statically unknown continuations and are conservative.
	r1s := make([]r1State, len(a.blocks))
	for id, b := range a.blocks {
		r := a.regions[b.ri]
		last := b.end - 1
		in := r.ins[last]
		if !in.Op.EndsBlock() {
			// The run was cut short by the next word being a leader
			// (someone branches there): a plain fall-through edge. A run
			// cut by the image end or an undecodable word instead has no
			// statically known continuation.
			if b.end < r.words() && r.ok[b.end] && r.reach[b.end] != reachNone {
				b.succs = append(b.succs, int(r.blockOf[b.end]))
				b.kinds = append(b.kinds, edgeFlow)
			} else {
				b.conservative = true
			}
			continue
		}
		r1 := r1State{}
		for i := b.start; i < last; i++ {
			r1 = trackR1(r1, r.ins[i])
		}
		r1s[id] = r1
		succs, cons, _ := successors(in, r.wordAddr(last), r1)
		b.conservative = cons
		for _, s := range succs {
			sb := a.blockAt(s.addr)
			if sb == nil {
				b.conservative = true
				continue
			}
			b.succs = append(b.succs, int(a.regions[sb.ri].blockOf[sb.start]))
			b.kinds = append(b.kinds, s.kind)
		}
	}
	return r1s
}
