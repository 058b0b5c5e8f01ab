// Package pin implements the dynamic binary instrumentation engine that
// SuperPin is built on — a workalike of Intel Pin's VM at the level of
// detail the paper depends on (Section 2.2): a JIT that compiles guest
// code into instrumented traces held in a code cache, a dispatcher, and a
// Pintool instrumentation API with TRACE/BBL/INS objects, InsertCall,
// the inlined InsertIfCall / InsertThenCall pair used by SuperPin's
// signature detector, and InsertInlineAdd, the inlined counter add of
// the paper's icount tools.
//
// A Pintool registers a trace-instrumentation callback; at compile time
// the callback walks the trace's basic blocks and instructions and
// attaches analysis calls; at run time the engine executes the
// instrumented trace, charging the calibrated cycle costs of analysis
// calls, compilation and dispatch to the owning process's virtual time.
//
// # Error handling
//
// The Insert* functions panic on misuse: a nil analysis function,
// predicate or counter, an InsertThenCall with no preceding unpaired
// InsertIfCall at the same instruction and point, an Insert* through a
// handle whose instrumentation callback has returned, or more calls in
// one trace than its call slab can index (jit.MaxTraceCalls). These are
// programmer errors in the Pintool itself — detectable the first time
// the tool's instrumentation callback runs, never dependent on user
// input — so they fail loudly at the call site rather than propagating
// errors through every instrumentation callback, mirroring Pin's own
// usage contract. Configuration errors
// (user-supplied cache geometry, sampling budgets) are returned as
// ordinary errors by the tool constructors in internal/tools.
package pin

import (
	"fmt"
	"slices"

	"superpin/internal/isa"
	"superpin/internal/jit"
)

// Re-exported instrumentation types. Analysis routines receive a *Ctx
// exposing the instrumented process's architectural state.
type (
	// Ctx is the analysis-time context (see jit.Ctx).
	Ctx = jit.Ctx
	// AnalysisFn is a plain analysis routine.
	AnalysisFn = jit.AnalysisFn
	// PredicateFn is an inlined conditional analysis routine.
	PredicateFn = jit.PredicateFn
)

// IPoint selects where an analysis call is inserted relative to an
// instruction, mirroring Pin's IPOINT_BEFORE / IPOINT_AFTER.
type IPoint uint8

// Insertion points.
const (
	Before IPoint = iota
	After
)

// Trace is the instrumentation-time view of a trace being compiled.
//
// Trace, Bbl and Ins handles are valid only during the instrumentation
// callback they are passed to, which is Pin's contract for its TRACE,
// BBL and INS objects. The engine places every call the callbacks
// insert once the last callback returns (see Engine.place): an Insert*
// through a handle after that panics, and the slice Bbl.Ins returns is
// engine scratch that the next compile reuses.
type Trace struct {
	e    *Engine
	ct   *jit.CompiledTrace
	bbls []*Bbl
	ins  []*Ins // per-instruction views, built on first use

	bblSlab [jit.MaxTraceBbls]Bbl
	bblPtrs [jit.MaxTraceBbls]*Bbl
}

// Bbl is the instrumentation-time view of a basic block within a trace.
type Bbl struct {
	trace *Trace
	addr  uint32
	start int32 // index of first instruction in trace
	n     int32
}

// Ins is the instrumentation-time view of one instruction.
type Ins struct {
	trace *Trace
	idx   int
}

// newTraceView wraps a compiled trace and its source trace for the
// instrumentation callbacks. The view and its blocks are one allocation.
func (e *Engine) newTraceView(tr *jit.Trace, ct *jit.CompiledTrace) *Trace {
	t := &Trace{e: e, ct: ct}
	start := 0
	for k := range tr.Bbls {
		n := tr.Bbls[k].NumIns()
		t.bblSlab[k] = Bbl{trace: t, addr: tr.Bbls[k].Addr, start: int32(start), n: int32(n)}
		t.bblPtrs[k] = &t.bblSlab[k]
		start += n
	}
	nb := len(tr.Bbls)
	t.bbls = t.bblPtrs[:nb:nb]
	return t
}

// insViews returns the per-instruction views, building them on first
// use: one []Ins for the trace, indexed through the engine's reusable
// pointer slab.
func (t *Trace) insViews() []*Ins {
	if t.ins == nil {
		views := make([]Ins, len(t.ct.Ins))
		ptrs := t.e.insScratch[:0]
		for i := range views {
			views[i] = Ins{trace: t, idx: i}
			ptrs = append(ptrs, &views[i])
		}
		t.e.insScratch = ptrs
		t.ins = ptrs
	}
	return t.ins
}

// insert queues c at instruction idx for placement.
func (t *Trace) insert(idx int, when IPoint, c jit.Call) {
	t.checkOpen()
	t.e.pending = append(t.e.pending, pendingCall{key: slotKey(idx, when), call: c})
}

// checkOpen panics unless t is the trace its engine is instrumenting.
func (t *Trace) checkOpen() {
	if t.e.instrumenting != t {
		panic(fmt.Sprintf("pin: Insert* into trace %#08x after its instrumentation callback returned", t.ct.Addr))
	}
}

// Addr returns the trace's entry address.
func (t *Trace) Addr() uint32 { return t.ct.Addr }

// NumIns returns the number of instructions in the trace.
func (t *Trace) NumIns() int { return t.ct.NumIns() }

// Bbls returns the trace's basic blocks in order.
func (t *Trace) Bbls() []*Bbl { return t.bbls }

// Addr returns the block's entry address.
func (b *Bbl) Addr() uint32 { return b.addr }

// NumIns returns the number of instructions in the block.
func (b *Bbl) NumIns() int { return int(b.n) }

// InsHead returns the block's first instruction.
func (b *Bbl) InsHead() *Ins { return b.trace.insViews()[b.start] }

// Ins returns the block's instructions in order, as a capped window of
// the trace's views: appending to it never touches another block's.
func (b *Bbl) Ins() []*Ins {
	end := b.start + b.n
	return b.trace.insViews()[b.start:end:end]
}

// InsertCall attaches a plain analysis call to the head of the block,
// the idiom used by basic-block-granularity tools such as icount2.
func (b *Bbl) InsertCall(when IPoint, fn AnalysisFn) {
	if fn == nil {
		panic("pin: InsertCall with nil function")
	}
	b.trace.insert(int(b.start), when, jit.Call{Fn: fn})
}

// InsertInlineAdd attaches an inline counter add to the head of the
// block: *ctr += n, the shape of icount2's per-block count.
func (b *Bbl) InsertInlineAdd(when IPoint, ctr *uint64, n uint64) {
	b.trace.insert(int(b.start), when, b.trace.inlineAdd(ctr, n))
}

func (i *Ins) slot() *jit.CompiledIns { return &i.trace.ct.Ins[i.idx] }

// Addr returns the instruction's address.
func (i *Ins) Addr() uint32 { return i.slot().Addr }

// Inst returns the decoded instruction.
func (i *Ins) Inst() isa.Inst { return i.slot().Inst }

// IsMemRead reports whether the instruction reads data memory.
func (i *Ins) IsMemRead() bool { return i.slot().Inst.Op.IsLoad() }

// IsMemWrite reports whether the instruction writes data memory.
func (i *Ins) IsMemWrite() bool { return i.slot().Inst.Op.IsStore() }

// IsControl reports whether the instruction can redirect control flow.
func (i *Ins) IsControl() bool { return i.slot().Inst.Op.IsControl() }

// MemSize returns the size of the instruction's memory access (0 if none).
func (i *Ins) MemSize() int { return i.slot().Inst.Op.MemSize() }

// InsertCall attaches a plain analysis call at the given point. Plain
// calls model Pin's full call sequence (register save/restore around the
// call) and carry the engine's Call cost.
func (i *Ins) InsertCall(when IPoint, fn AnalysisFn) {
	if fn == nil {
		panic("pin: InsertCall with nil function")
	}
	i.trace.insert(i.idx, when, jit.Call{Fn: fn})
}

// InsertInlineAdd attaches an inline counter add at the given point:
// *ctr += n, with no analysis routine. It is Pin's inlining of the
// paper's Fig. 2 docount: the engine charges it the Call cost like a
// plain call, but runs it without a closure, and superblocks execute
// through it, settling the counter once per run. The batching is
// invisible to the tool: a run's adds are settled before any other
// analysis call runs and before Run returns.
func (i *Ins) InsertInlineAdd(when IPoint, ctr *uint64, n uint64) {
	i.trace.insert(i.idx, when, i.trace.inlineAdd(ctr, n))
}

// inlineAdd builds an inline-add call naming ctr by its slot in the
// engine's counter table, panicking on a nil counter.
func (t *Trace) inlineAdd(ctr *uint64, n uint64) jit.Call {
	if ctr == nil {
		panic("pin: InsertInlineAdd with nil counter")
	}
	return jit.Call{Slot: t.e.slotOf(ctr), N: n}
}

// wrapPredicate, when non-nil, wraps every predicate InsertIfCall
// attaches, at instrumentation time. Only tests set it
// (export_test.go), to check that predicates leave guest state alone.
var wrapPredicate func(PredicateFn) PredicateFn

// InsertIfCall attaches an inlined conditional check at the given point.
// The check is cheap (it models Pin inlining the predicate at the
// instrumentation site); if it returns true, the matching InsertThenCall
// routine runs at full call cost. SuperPin's two-register quick signature
// check uses exactly this pair (paper Section 4.4).
//
// A predicate must not write guest registers or memory: it only decides
// whether the then-routine runs. The engine does not shield guest state
// from it — the save/restore Pin performs around an inlined predicate is
// charged as part of IfCall, not copied on the host — so a predicate
// that writes would change the guest's execution.
func (i *Ins) InsertIfCall(when IPoint, pred PredicateFn) {
	if pred == nil {
		panic("pin: InsertIfCall with nil predicate")
	}
	if wrapPredicate != nil {
		pred = wrapPredicate(pred)
	}
	i.trace.insert(i.idx, when, jit.Call{If: pred})
}

// InsertThenCall attaches the guarded routine for the latest unpaired
// InsertIfCall at the same instruction and point. It panics if there is
// none, matching Pin's usage contract.
func (i *Ins) InsertThenCall(when IPoint, fn AnalysisFn) {
	if fn == nil {
		panic("pin: InsertThenCall with nil function")
	}
	i.trace.checkOpen()
	key := slotKey(i.idx, when)
	pend := i.trace.e.pending
	for j := len(pend) - 1; j >= 0; j-- {
		c := &pend[j].call
		if pend[j].key == key && c.If != nil && c.Then == nil && c.Fn == nil {
			c.Then = fn
			return
		}
	}
	panic(fmt.Sprintf("pin: InsertThenCall at %#08x without matching InsertIfCall", i.Addr()))
}

// InsertIfThenCall is a convenience wrapper pairing InsertIfCall and
// InsertThenCall in one step.
func (i *Ins) InsertIfThenCall(when IPoint, pred PredicateFn, fn AnalysisFn) {
	i.InsertIfCall(when, pred)
	i.InsertThenCall(when, fn)
}

// pendingCall is an inserted call awaiting placement; key is its
// instruction and point (slotKey).
type pendingCall struct {
	key  int
	call jit.Call
}

// slotKey orders call lists by instruction, Before ahead of After.
func slotKey(idx int, when IPoint) int {
	if when == Before {
		return 2 * idx
	}
	return 2*idx + 1
}

// place moves the calls inserted while instrumenting ct from the
// pending buffer into one exact-size slab, ct.Calls, and gives each
// instruction its Before and After ranges of it. The placement is a
// counting sort by slotKey that keeps insertion order within a key, so
// every list holds the calls, in the order, that appending to it
// directly would have produced. It closes the trace to further inserts.
// A trace with more calls than jit.CallIdx can index panics, naming the
// trace.
func (e *Engine) place(ct *jit.CompiledTrace) {
	e.instrumenting = nil
	pend := e.pending
	if len(pend) == 0 {
		return
	}
	if len(pend) > jit.MaxTraceCalls {
		panic(fmt.Sprintf("pin: trace %#08x has %d analysis calls, more than the %d a trace can hold",
			ct.Addr, len(pend), jit.MaxTraceCalls))
	}
	nk := 2 * len(ct.Ins)
	start := slices.Grow(e.placeStart[:0], nk+1)[:nk+1]
	clear(start)
	for i := range pend {
		start[pend[i].key+1]++
	}
	for k := 1; k <= nk; k++ {
		start[k] += start[k-1]
	}
	for i := range ct.Ins {
		ci := &ct.Ins[i]
		ci.B0 = jit.CallIdx(start[2*i])
		ci.B1 = jit.CallIdx(start[2*i+1])
		ci.A1 = jit.CallIdx(start[2*i+2])
	}
	slab := make([]jit.Call, len(pend))
	for i := range pend {
		k := pend[i].key
		slab[start[k]] = pend[i].call
		start[k]++
	}
	ct.Calls = slab
	clear(pend) // drop the tool's closures
	e.pending = pend[:0]
	e.placeStart = start
}
