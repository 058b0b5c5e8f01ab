package pin

import (
	"slices"

	"superpin/internal/isa"
	"superpin/internal/jit"
	"superpin/internal/mem"
)

// UseCache attaches the engine, as slice number slice, to tc, the one
// trace cache of a SuperPin run, and registers the tool instance's
// counter areas: the local slices of its CreateSharedArea calls, in call
// order. An add into an area element is named by a slot that is the
// same in every instance registering the same area sizes in the same
// order; the first engine fixes tc's layout. Call it before the first Run.
//
// An engine whose layout matches shares sealed code (ROADMAP item 14),
// on the host only: on a local miss it adopts the code another slice
// offered for the PC when its memory still decodes to the code's
// translation and its split point lies outside the trace (the slice's
// boundary check is instrumented there), and it is charged exactly as
// for a build. It offers the code it builds when every call is an add
// to an area counter (the core.Tool contract makes instrumentation a
// pure function of the trace) and the trace was not cut short by a split
// point or an undecodable word.
//
// With share it also takes part in the Section 8 shared code cache: on
// a local miss it weaves the translation tc shows it, unless that holds
// its split point beyond the head or its memory no longer decodes to
// it, and adopts only code compiled from that very translation. Every
// dispatch pays Cost.SharedCheck, and a woven trace Cost.WeavePerIns per
// instruction in place of a compile. A layout mismatch stops code
// adoption, never Section 8 sharing.
func (e *Engine) UseCache(tc *jit.TraceCache, slice int, areas [][]uint64, share bool) {
	e.ctrs = e.ctrs[:0]
	sizes := make([]int, len(areas))
	for i, a := range areas {
		sizes[i] = len(a)
		for j := range a {
			e.ctrs = append(e.ctrs, &a[j])
		}
	}
	e.nShared = len(e.ctrs)
	e.lastCtr = nil
	e.traces, e.slice, e.shareTr = tc, slice, share
	e.shareCode = tc.UseLayout(sizes)
}

// slotOf returns the counter-table slot of ctr, giving a counter outside
// the registered areas a private slot on first use. Tools insert adds to
// few counters, so the table is searched linearly.
func (e *Engine) slotOf(ctr *uint64) uint32 {
	if ctr == e.lastCtr {
		return e.lastSlot
	}
	slot := slices.Index(e.ctrs, ctr)
	if slot < 0 {
		slot = len(e.ctrs)
		e.ctrs = append(e.ctrs, ctr)
	}
	e.lastCtr, e.lastSlot = ctr, uint32(slot)
	return e.lastSlot
}

// adopt returns a fresh header over the trace cache's code for the trace
// entered at pc when this engine would build that very code, and nil
// otherwise. st is the Section 8 translation the engine is about to
// weave, nil when it would build one. On adoption the engine watches
// the code in its own memory and, without a translation to weave,
// records the code's translation as built at now, as a build would.
func (e *Engine) adopt(m *mem.Memory, pc uint32, now uint64, st *jit.Trace) *jit.CompiledTrace {
	code, src := e.traces.Code(pc)
	if code == nil || e.SplitPC != 0 && code.Overlaps(e.SplitPC, e.SplitPC) {
		return nil
	}
	if st != nil && src != st || st == nil && !decodesFrom(m, src) {
		return nil
	}
	if st == nil && e.shareTr {
		e.traces.Built(src, e.slice, now)
	}
	m.WatchCode(pc, uint32(len(code.Ins))*isa.WordSize)
	return code.Share()
}

// offer offers code this engine built from tr to the trace cache when
// every attached engine would build it alike (see UseCache).
func (e *Engine) offer(tr *jit.Trace, ct *jit.CompiledTrace) {
	if tr.Cut {
		return
	}
	for i := range ct.Calls {
		if c := &ct.Calls[i]; !c.IsAdd() || int(c.Slot) >= e.nShared {
			return
		}
	}
	e.traces.SetCode(ct, tr)
}

// imageSeam changes how engines adopt code from a trace cache. Only tests
// set it (export_test.go): noAdopt turns adoption off, and adopted, when
// non-nil, sees every adopted trace together with the engine, memory and
// shared translation it was adopted for.
var imageSeam struct {
	noAdopt bool
	adopted func(e *Engine, m *mem.Memory, st *jit.Trace, ct *jit.CompiledTrace)
}
