package pin

import (
	"time"

	"superpin/internal/cpu"
	"superpin/internal/isa"
	"superpin/internal/jit"
	"superpin/internal/kernel"
	"superpin/internal/mem"
	"superpin/internal/obs"
)

// CostModel holds the engine's calibrated per-operation cycle costs. The
// defaults reproduce the overhead structure the paper reports: a plain
// per-instruction InsertCall (icount1) costs about 10 extra cycles per
// instruction — a ~12X slowdown once dispatch and compilation are added —
// while a per-basic-block call (icount2) amortizes the same cost over the
// block.
type CostModel struct {
	// CompilePerIns is the JIT cost per compiled instruction.
	CompilePerIns kernel.Cycles
	// Dispatch is the cost of one code-cache dispatch (trace lookup and
	// entry).
	Dispatch kernel.Cycles
	// Exec is the cost of executing one translated guest instruction.
	Exec kernel.Cycles
	// Call is the cost of a plain analysis call, including the register
	// save/restore sequence Pin generates around it.
	Call kernel.Cycles
	// IfCall is the cost of an inlined InsertIfCall predicate.
	IfCall kernel.Cycles
	// ThenCall is the cost of an InsertThenCall routine when its
	// predicate fires.
	ThenCall kernel.Cycles
	// WeavePerIns is the per-instruction cost of instrumenting a
	// translation another slice published to the Section 8 shared code
	// cache (the translation itself was paid for once by its builder).
	WeavePerIns kernel.Cycles
	// SharedCheck is the per-dispatch consistency-check surcharge paid
	// by an engine that shares Section 8 translations (paper Section 8:
	// "a little extra overhead by performing extra consistency checks").
	SharedCheck kernel.Cycles
	// MemSurcharge is an extra cost per memory instruction, modeling the
	// cache behavior of the instrumented run (per-benchmark; see
	// internal/workload). Zero for most benchmarks.
	MemSurcharge kernel.Cycles
	// CacheCapacity is the code-cache capacity in compiled instructions
	// (<= 0 for unlimited). Applications whose footprint exceeds it
	// trigger whole-cache flushes and recompilation.
	CacheCapacity int

	// NoFastPath disables the engine's host-side dispatch fast paths
	// (trace linking and batched superblock execution), forcing the
	// per-instruction reference loop. Virtual-cycle results are
	// byte-identical either way — the fast paths change what the host
	// pays, never what the guest is charged — so the flag exists for
	// differential testing and benchmarking, not for correctness. It
	// rides in the cost model (despite not being a cost) because the
	// cost model is the one knob plumbed to every engine a run creates,
	// including the per-slice engines SuperPin forks.
	NoFastPath bool

	// NoSA, SAIntra and NoHotTier have no effect; set only by
	// benchmark/layers.go (ROADMAP 17(b)), which still compiles against
	// them. The engine has one tier and reads no static analysis.
	NoSA      bool
	SAIntra   bool
	NoHotTier bool
}

// DefaultCost returns the calibrated default engine cost model.
func DefaultCost() CostModel {
	return CostModel{
		CompilePerIns: 60,
		Dispatch:      3,
		Exec:          1,
		Call:          10,
		IfCall:        2,
		ThenCall:      12,
		WeavePerIns:   15,
		SharedCheck:   1,
		CacheCapacity: 32768,
	}
}

// NativeCost returns the native charge profile: the cost model under
// which an engine with no tool charges exactly what cpu.Step-by-step
// interpretation charges (kernel.NativeRunner), so native baseline runs
// and the SuperPin master run on the engine's linked traces and
// superblocks with unchanged virtual results. interp is the kernel's
// CostModel.InterpCost and memSurcharge the benchmark's native memory
// surcharge. Every charge the engine makes, and its value here:
//
//	charge         value         why
//	Exec           interp        one interpreted instruction
//	MemSurcharge   memSurcharge  the native cache-behavior surcharge
//	CompilePerIns  0             the interpreter translates nothing
//	Dispatch       0             ... and enters no code cache
//	SharedCheck    0             no Section 8 sharing (UseCache)
//	WeavePerIns    0             ... so no translation is woven
//	Call           0             no tool: no analysis calls
//	IfCall         0             no tool: no predicates
//	ThenCall       0             no tool: no then-routines
//
// Copy-on-write copies are charged by the kernel's PageCopy on both
// paths. CacheCapacity is 0 (unlimited): a capacity flush would only
// cost host time. The engine should carry no tracer or metrics registry,
// so its host-side statistics reach no result or metric.
func NativeCost(interp, memSurcharge kernel.Cycles) CostModel {
	return CostModel{Exec: interp, MemSurcharge: memSurcharge}
}

// Stats are cumulative engine execution statistics. AnalysisCalls counts
// plain calls and inline adds. SuperblockIns counts the subset of ExecIns
// executed through the batched superblock fast path (zero when the fast
// path is disabled or every instruction carries a call other than an
// inline add). TraceBuilds counts the traces the engine instrumented
// itself, as opposed to adopting another engine's code from a trace
// cache; the code cache's Compiles counts both. Both are host-side: they
// never affect virtual-cycle results.
type Stats struct {
	ExecIns       uint64
	AnalysisCalls uint64
	IfCalls       uint64
	ThenCalls     uint64
	Dispatches    uint64
	SuperblockIns uint64
	TraceBuilds   uint64
}

// SyscallFilter lets a wrapper (SuperPin's slice engine) intercept guest
// system calls before they reach the kernel. It is invoked with the
// process stopped at the instruction after the SYSCALL. Returning
// handled=true consumes the syscall (the filter has applied its effects);
// stop, when non-zero alongside handled, terminates the run with that
// reason (used when playback reaches a slice's boundary syscall).
type SyscallFilter func(k *kernel.Kernel, p *kernel.Proc) (handled bool, cost kernel.Cycles, stop kernel.StopReason)

// Engine is one instance of the instrumentation VM: a code cache plus the
// registered instrumentation and fini callbacks. Each instrumented
// process owns its own Engine. In SuperPin mode every slice gets a fresh
// one whose code cache starts in a clean state, so each slice still pays
// the paper's per-slice compilation overhead in virtual time; on the
// host, a slice engine adopts the instrumented code an earlier slice of
// the same run built (see UseCache) instead of building it again.
type Engine struct {
	// Cost is the engine's cycle-cost model. Mutable until first Run.
	Cost CostModel

	// Syscall, when non-nil, filters guest syscalls (see SyscallFilter).
	Syscall SyscallFilter

	// SplitPC, when non-zero, forces a trace (and basic-block) boundary
	// at that address during compilation. SuperPin sets it to the
	// slice's end-signature PC so block-granularity instrumentation
	// stays exact across a mid-block slice boundary.
	SplitPC uint32

	// InsLimit, when non-zero, pauses execution (StopBudget) once the
	// process's total InsCount reaches it. SuperPin's deterministic
	// thread replay uses it to stop a thread's burst at exactly the
	// instruction count the master recorded.
	InsLimit uint64

	cache         *jit.CodeCache
	sealScratch   []runSpan // reused across seal calls to avoid per-compile allocs
	instrumenters []func(*Trace)
	finiFns       []func(code uint32)
	ctx           jit.Ctx
	cur           *jit.CompiledTrace
	idx           int
	stats         Stats
	trace         *obs.Tracer

	// Compile-time instrumentation scratch, reused across compiles:
	// instrumenting is the trace view whose callbacks are running (nil
	// outside them), pending the calls they inserted awaiting placement,
	// placeStart place's counting array and insScratch the []*Ins
	// backing Bbl.Ins.
	instrumenting *Trace
	pending       []pendingCall
	placeStart    []int
	insScratch    []*Ins

	// Live telemetry (AttachMetrics): pre-resolved handles plus
	// engine-local accumulators flushed once per Run call, so the hot
	// dispatch loop never takes the registry's locks. All nil/zero when
	// no registry is attached — the default costs one nil check per
	// Run call and per superblock batch.
	metrics     *obs.Metrics
	mBatch      *obs.Hist    // pin.dispatch_batch_ins
	mCompile    *obs.Hist    // pin.compile_ns
	mExecIns    *obs.Counter // pin.live.exec_ins
	mDispatch   *obs.Counter // pin.live.dispatches
	locBatch    [obs.HistBuckets]uint64
	locBatchSum uint64
	locBatchN   uint64
	lastFlushed Stats

	// linkNext is a successor trace resolved by the previous trace exit's
	// link-cache hit, consumed by the next dispatch in place of the map
	// lookup. linkFrom is the previous trace when its exit missed the
	// link cache; the next dispatch records the resolved successor into
	// it. At most one of the two is set.
	linkNext *jit.CompiledTrace
	linkFrom *jit.CompiledTrace

	// codeGen is the guest memory's CodeGen value the code cache was last
	// synchronized with (syncCode): stores into translated code past it
	// have not yet dropped the translations they overwrote.
	codeGen uint64

	// The SuperPin run's trace cache (UseCache), nil for the master and
	// serial Pin. slice is this engine's slice number, its order key
	// there. shareTr turns on Section 8 sharing of translations, and
	// shareCode adoption and offers of sealed code. sharedHits and
	// sharedMisses count the translation lookups this engine made.
	traces                   *jit.TraceCache
	slice                    int
	shareTr, shareCode       bool
	sharedHits, sharedMisses uint64

	// The counter table inline adds name their counters through (see
	// slotOf): ctrs[slot] is the counter. Slots below nShared are the
	// elements of the counter areas UseCache registered, in area order;
	// the rest are private, one per other counter, in first-use order.
	// lastCtr and lastSlot cache the latest resolution, since a tool
	// usually inserts adds to one counter.
	ctrs     []*uint64
	nShared  int
	lastCtr  *uint64
	lastSlot uint32
}

// NewEngine creates an engine with the given cost model.
func NewEngine(cost CostModel) *Engine {
	return &Engine{
		Cost:  cost,
		cache: jit.NewCodeCache(cost.CacheCapacity),
	}
}

// AddTraceInstrumenter registers a trace-time instrumentation callback,
// the analogue of TRACE_AddInstrumentFunction. Callbacks run in
// registration order each time a trace is compiled.
func (e *Engine) AddTraceInstrumenter(fn func(*Trace)) {
	e.instrumenters = append(e.instrumenters, fn)
}

// AddFiniFunction registers a callback for Fini, the analogue of
// PIN_AddFiniFunction.
func (e *Engine) AddFiniFunction(fn func(code uint32)) {
	e.finiFns = append(e.finiFns, fn)
}

// Fini runs the registered fini callbacks in order.
func (e *Engine) Fini(code uint32) {
	for _, fn := range e.finiFns {
		fn(code)
	}
}

// RequestStop asks the engine to stop before the next instruction
// executes. It is only meaningful when called from within an analysis
// routine running on this engine (SuperPin's SP_EndSlice uses it).
func (e *Engine) RequestStop() { e.ctx.RequestStop() }

// AttachObs connects the engine (and its code cache) to a tracer, with
// pid identifying the instrumented process in emitted events. Compile
// and flush events carry the virtual time of the engine's current Run
// call. Passing a nil tracer detaches.
func (e *Engine) AttachObs(t *obs.Tracer, pid int32) {
	e.trace = t
	e.cache.Trace = t
	e.cache.PID = pid
}

// AttachMetrics connects the engine to a live metrics registry: the
// compile wall-time histogram, the dispatch batch-size histogram,
// and live counters (pin.live.*) that track the engine's progress while
// it runs. Handles are resolved once here; the dispatch loop
// accumulates locally and flushes at each Run exit. Purely host-side —
// virtual results are byte-identical with or without a registry.
// Passing nil detaches.
func (e *Engine) AttachMetrics(m *obs.Metrics) {
	e.metrics = m
	if m == nil {
		e.mBatch, e.mCompile = nil, nil
		e.mExecIns, e.mDispatch = nil, nil
		return
	}
	e.mBatch = m.Hist("pin.dispatch_batch_ins")
	e.mCompile = m.Hist("pin.compile_ns")
	e.mExecIns = m.LiveCounter("pin.live.exec_ins")
	e.mDispatch = m.LiveCounter("pin.live.dispatches")
	e.cache.SizeHist = m.Hist("jit.trace_ins")
}

// flushTelemetry folds the Run call's locally accumulated telemetry
// into the shared registry: the batch-size histogram in one merge, and
// the live counters by stats delta. Called once per Run exit, only with
// a registry attached.
func (e *Engine) flushTelemetry() {
	if e.mBatch != nil && e.locBatchN > 0 {
		e.mBatch.Merge(e.locBatch[:], e.locBatchSum, e.locBatchN)
		e.locBatch = [obs.HistBuckets]uint64{}
		e.locBatchSum, e.locBatchN = 0, 0
	}
	if e.mExecIns != nil {
		e.mExecIns.Add(e.stats.ExecIns - e.lastFlushed.ExecIns)
	}
	if e.mDispatch != nil {
		e.mDispatch.Add(e.stats.Dispatches - e.lastFlushed.Dispatches)
	}
	e.lastFlushed = e.stats
}

// PublishMetrics publishes the engine's cumulative statistics into m
// under the given dotted prefix (e.g. "pin"). Counters accumulate, so
// publishing several engines under one prefix sums them. No-op when m
// is nil.
func (e *Engine) PublishMetrics(m *obs.Metrics, prefix string) {
	if m == nil {
		return
	}
	m.Add(prefix+".exec_ins", e.stats.ExecIns)
	m.Add(prefix+".analysis_calls", e.stats.AnalysisCalls)
	m.Add(prefix+".if_calls", e.stats.IfCalls)
	m.Add(prefix+".then_calls", e.stats.ThenCalls)
	m.Add(prefix+".dispatches", e.stats.Dispatches)
	m.Add(prefix+".superblock.ins", e.stats.SuperblockIns)
	m.Add(prefix+".trace_builds", e.stats.TraceBuilds)
	cs := e.cache.Stats()
	m.Add(prefix+".cache.lookups", cs.Lookups)
	m.Add(prefix+".cache.misses", cs.Misses)
	m.Add(prefix+".cache.compiles", cs.Compiles)
	m.Add(prefix+".cache.compiled_ins", cs.CompiledIns)
	m.Add(prefix+".cache.flushes", cs.Flushes)
	m.Add(prefix+".link.hits", cs.LinkHits)
	m.Add(prefix+".link.misses", cs.LinkMisses)
	m.Add(prefix+".link.invalidations", cs.LinkInvalidations)
	if e.shareTr {
		m.Add(prefix+".shared.hits", e.sharedHits)
		m.Add(prefix+".shared.misses", e.sharedMisses)
	}
}

// Stats returns cumulative execution statistics.
func (e *Engine) Stats() Stats { return e.stats }

// CacheStats returns cumulative code-cache statistics.
func (e *Engine) CacheStats() jit.CacheStats { return e.cache.Stats() }

// FlushCache discards all compiled traces (used by tests and by cache
// pressure experiments). Pending trace-link state dies with the cache
// generation: the flush bumps the cache epoch, which invalidates every
// recorded link lazily, and the in-flight linkNext/linkFrom pointers are
// dropped eagerly here.
func (e *Engine) FlushCache() {
	e.cache.Flush()
	e.cur = nil
	e.linkNext = nil
	e.linkFrom = nil
}

// Run implements kernel.Runner: it executes up to budget cycles of
// instrumented guest code for p.
//
// Two host-side fast paths accelerate the loop without changing any
// virtual-cycle outcome (disable both with Cost.NoFastPath):
//
//   - trace linking (Pin paper Section 2.2): each trace exit records its
//     successor in a small per-trace cache, so the next dispatch is a
//     pointer chase instead of a map lookup. The dispatch cycles are
//     still charged and the logical cache lookup is still counted.
//   - superblock execution: runs of instructions whose only analysis
//     calls are inline adds to one counter execute through cpu.ExecBlock
//     (ExecBlockProf when a profiler probe is attached), with cycles,
//     InsCount, ExecIns, the counter, AnalysisCalls and copy-on-write
//     charges batched per run. The run is cut at the exact
//     instruction where the reference loop's per-instruction budget or
//     InsLimit check would stop, so stop points are unchanged.
func (e *Engine) Run(k *kernel.Kernel, p *kernel.Proc, budget kernel.Cycles) (kernel.Cycles, kernel.StopReason) {
	used, stop := e.run(k, p, budget)
	if e.metrics != nil {
		e.flushTelemetry()
	}
	return used, stop
}

// run is the dispatch loop behind Run; see Run for the contract.
func (e *Engine) run(k *kernel.Kernel, p *kernel.Proc, budget kernel.Cycles) (kernel.Cycles, kernel.StopReason) {
	cost := &e.Cost
	pageCopy := k.PageCopy()
	fast := !cost.NoFastPath
	pr := p.Prof
	ctx := &e.ctx
	ctx.Regs = &p.Regs
	ctx.Mem = p.Mem
	if e.trace != nil {
		// k.Now is frozen for the duration of this Run call, so stamping
		// once per call gives compile/flush events their correct time.
		e.cache.Now = uint64(k.Now)
	}
	var used kernel.Cycles
	if p.Mem.CodeGen() != e.codeGen && e.syncCode(p.Mem) {
		// Another thread or a syscall stored into the trace this engine
		// stopped in: resume from a fresh translation.
		e.cur = nil
	}

	// cowClear caches "no copy-on-write charge is pending" so the hot loop
	// can skip the p.CowPending probe. It is trusted only when true: it is
	// set after every p.ChargeCow and dropped whenever something other than
	// guest execution may have touched guest memory (Run entry, syscall
	// filters, analysis calls after the charge point).
	cowClear := false
	// hasRuns caches "the current trace has at least one superblock", a
	// per-trace constant, so fully instrumented traces pay one register
	// test per instruction instead of re-probing RunAt.
	hasRuns := fast && e.cur != nil && e.cur.RunAt != nil

	for {
		if e.cur == nil {
			used += cost.Dispatch
			e.stats.Dispatches++
			if e.shareTr {
				used += cost.SharedCheck
			}
			if next := e.linkNext; next != nil && next.Addr == p.Regs.PC {
				// Linked dispatch: the previous exit resolved its
				// successor, so the map lookup is skipped. It still counts
				// as a (hit) lookup so CacheStats match -nofastpath runs.
				e.linkNext = nil
				e.cache.RecordLookup(true)
				e.cur, e.idx = next, 0
			} else {
				e.linkNext = nil
				ct := e.cache.Lookup(p.Regs.PC)
				e.cache.RecordLookup(ct != nil)
				if ct == nil {
					var compileStart time.Time
					if e.mCompile != nil {
						compileStart = time.Now()
					}
					var sharedHit bool
					var err error
					ct, sharedHit, err = e.compile(p.Mem, p.Regs.PC, uint64(k.Now), fast)
					if err != nil {
						p.Err = err
						return used, kernel.StopError
					}
					e.cache.Insert(ct)
					if e.mCompile != nil {
						e.mCompile.Observe(uint64(time.Since(compileStart)))
					}
					if sharedHit {
						used += kernel.Cycles(ct.NumIns()) * cost.WeavePerIns
					} else {
						used += kernel.Cycles(ct.NumIns()) * cost.CompilePerIns
					}
				}
				if from := e.linkFrom; from != nil {
					from.SetLink(p.Regs.PC, ct, e.cache.Epoch())
					e.linkFrom = nil
				}
				e.cur, e.idx = ct, 0
			}
			hasRuns = fast && e.cur.RunAt != nil
		}

		// Superblock fast path: execute the run starting at the current
		// instruction in one batched ExecBlock call. Skipped while
		// an uncharged copy-on-write event is pending (possible after a
		// kernel syscall wrote guest memory) so the charge lands at the
		// same instruction as in the reference loop.
		if hasRuns && (cowClear || !p.CowPending()) {
			if ri := e.cur.RunAt[e.idx]; ri >= 0 {
				sb := &e.cur.Sblocks[ri]
				off := e.idx - sb.Start
				var pre uint64
				if off > 0 {
					pre = sb.Cum[off-1]
				}
				avail := len(sb.Block) - off
				// Budget hoisting: the reference loop executes an
				// instruction, then stops if used >= budget. Binary-search
				// the cumulative-cost array for the instruction whose
				// completion crosses the budget; that instruction still
				// executes, everything after it does not.
				allow := avail
				if used >= budget {
					allow = 1
				} else if target := pre + uint64(budget-used); sb.Cum[off+avail-1] >= target {
					// The budget trips somewhere inside the run (rare):
					// binary-search for the crossing instruction.
					lo, hi := off, off+avail
					for lo < hi {
						mid := int(uint(lo+hi) >> 1)
						if sb.Cum[mid] >= target {
							hi = mid
						} else {
							lo = mid + 1
						}
					}
					allow = lo - off + 1
				}
				// Same hoisting for the InsLimit pause point.
				if e.InsLimit != 0 {
					if p.InsCount >= e.InsLimit {
						allow = 1
					} else if rem := e.InsLimit - p.InsCount; uint64(allow) > rem {
						allow = int(rem)
					}
				}
				var n int
				var ev cpu.Event
				var err error
				if pr != nil {
					n, ev, err = cpu.ExecBlockProf(&p.Regs, p.Mem, sb.Block[off:], allow, p.Mem.CopyEvents, pr)
				} else {
					n, ev, err = cpu.ExecBlock(&p.Regs, p.Mem, sb.Block[off:], allow, p.Mem.CopyEvents)
				}
				if n > 0 {
					last := off + n - 1
					used += kernel.Cycles(sb.Cum[last] - pre)
					if sb.Adds != nil {
						// Settle the run's inline adds once.
						var preAdd, preSites uint64
						if off > 0 {
							preAdd, preSites = sb.Adds[off-1], sb.Sites[off-1]
						}
						*e.ctrs[sb.Slot] += sb.Adds[last] - preAdd
						e.stats.AnalysisCalls += sb.Sites[last] - preSites
					}
					e.idx += n
					if p.CowPending() {
						used += e.settle(p, pageCopy)
					}
					cowClear = true
					p.InsCount += uint64(n)
					e.stats.ExecIns += uint64(n)
					e.stats.SuperblockIns += uint64(n)
					if e.mBatch != nil {
						// Engine-local batch-size accounting; merged into
						// the shared histogram once per Run call.
						e.locBatch[obs.HistBucket(uint64(n))]++
						e.locBatchSum += uint64(n)
						e.locBatchN++
					}
				}
				if err != nil {
					// The reference loop runs the faulting instruction's
					// Before calls, inline adds here, before it faults.
					ct := e.cur
					fi := &ct.Ins[sb.Start+off+n]
					for i := fi.B0; i < fi.B1; i++ {
						used += e.runCall(ctx, &ct.Calls[i])
					}
					p.Err = err
					e.cur = nil
					return used, kernel.StopError
				}
				if ev == cpu.EvSyscall {
					// Unreachable by construction — superblocks exclude
					// SYSCALL — but kept identical to the slow path.
					e.cur = nil
					if e.Syscall != nil {
						handled, c, stop := e.Syscall(k, p)
						used += c
						cowClear = false
						if p.Mem.CodeGen() != e.codeGen {
							e.syncCode(p.Mem)
						}
						if handled {
							if stop != kernel.StopBudget {
								return used, stop
							}
							if used >= budget || e.limitReached(p) {
								return used, kernel.StopBudget
							}
							continue
						}
					}
					return used, kernel.StopSyscall
				}
				if e.idx >= len(e.cur.Ins) || e.cur.Ins[e.idx].Addr != p.Regs.PC {
					if p.Regs.PC == e.cur.Addr && used < budget && !e.limitReached(p) {
						e.selfLoop(&used)
						continue
					}
					e.leaveTrace(p.Regs.PC, fast)
				}
				if used >= budget || e.limitReached(p) {
					return used, kernel.StopBudget
				}
				continue
			}
		}

		ci := &e.cur.Ins[e.idx]
		calls := e.cur.Calls[ci.B0:ci.A1]
		before := calls[:ci.B1-ci.B0]
		ctx.PC = ci.Addr
		ctx.Inst = ci.Inst

		// IPOINT_BEFORE analysis calls. A stop request here terminates
		// the run before the instruction executes, with the PC still at
		// the instrumented instruction — the semantics SuperPin's
		// boundary detection needs.
		for i := range before {
			used += e.runCall(ctx, &before[i])
			if ctx.StopRequested() {
				e.cur = nil
				return used, kernel.StopExit
			}
		}

		ev, err := cpu.Exec(&p.Regs, p.Mem, ci.Inst)
		if err != nil {
			p.Err = err
			e.cur = nil
			return used, kernel.StopError
		}
		e.idx++
		used += cost.Exec
		if ci.Inst.Op.IsMem() {
			used += cost.MemSurcharge
		}
		if p.CowPending() {
			used += e.settle(p, pageCopy)
		}
		cowClear = true
		p.InsCount++
		e.stats.ExecIns++
		if pr != nil {
			// The probe observes the retired instruction here — after its
			// architectural effects, before After-point analysis calls and
			// syscall servicing — the same point as the native interpreter
			// and the superblock fast path, so all modes sample identically.
			pr.OnExec(ci.Inst, ci.Addr+isa.WordSize, p.Regs.PC)
		}

		// IPOINT_AFTER analysis calls. They may write guest memory, so the
		// cached no-pending-COW flag is dropped.
		for i := len(before); i < len(calls); i++ {
			cowClear = false
			used += e.runCall(ctx, &calls[i])
			if ctx.StopRequested() {
				e.cur = nil
				return used, kernel.StopExit
			}
		}

		if ev == cpu.EvSyscall {
			e.cur = nil
			if e.Syscall != nil {
				handled, c, stop := e.Syscall(k, p)
				used += c
				cowClear = false
				if p.Mem.CodeGen() != e.codeGen {
					e.syncCode(p.Mem)
				}
				if handled {
					if stop != kernel.StopBudget {
						return used, stop
					}
					if used >= budget || e.limitReached(p) {
						return used, kernel.StopBudget
					}
					continue
				}
			}
			return used, kernel.StopSyscall
		}

		// Fall through within the trace if the PC matches the next
		// compiled instruction; otherwise re-dispatch.
		if e.idx >= len(e.cur.Ins) || e.cur.Ins[e.idx].Addr != p.Regs.PC {
			if fast && p.Regs.PC == e.cur.Addr && used < budget && !e.limitReached(p) {
				e.selfLoop(&used)
				continue
			}
			e.leaveTrace(p.Regs.PC, fast)
		}
		if used >= budget || e.limitReached(p) {
			return used, kernel.StopBudget
		}
	}
}

// settle charges p's pending copy-on-write copies and, when stores have
// hit translated code since the engine last synchronized, drops the
// translations they overwrote. If the current trace was one of them, the
// position moves past its end, so the dispatch loop's exit check leaves
// the trace and re-dispatches at the next PC from a fresh translation.
// The executors stop right after a store into watched code (it advances
// Mem.CopyEvents), so nothing past the store ran from the stale trace.
func (e *Engine) settle(p *kernel.Proc, pageCopy kernel.Cycles) kernel.Cycles {
	cy := p.ChargeCow(pageCopy)
	if p.Mem.CodeGen() != e.codeGen && e.syncCode(p.Mem) {
		e.idx = len(e.cur.Ins)
	}
	return cy
}

// syncCode drops every translation overlapping a store into code that
// m logged since the engine last synchronized, and reports whether the
// current trace was among them. A trace the store missed stays, current
// one included. Stores the log no longer holds are assumed to have hit
// everything.
func (e *Engine) syncCode(m *mem.Memory) (curHit bool) {
	drop := func(lo, hi uint32) {
		e.cache.Invalidate(lo, hi)
		if e.cur != nil && e.cur.Overlaps(lo, hi) {
			curHit = true
		}
	}
	if !m.CodeStoresSince(e.codeGen, drop) {
		drop(0, ^uint32(0))
	}
	e.codeGen = m.CodeGen()
	// A staged link may name a dropped trace.
	e.linkNext, e.linkFrom = nil, nil
	return curHit
}

// selfLoop re-enters the current trace at its head: the exit branched
// back to the trace's own entry (a hot loop body), so the dispatcher's
// map lookup and the link-cache round trip are both skipped. Virtual
// accounting is unchanged — the dispatch cycles are charged and the
// logical (hit) lookup is counted exactly as the reference loop does.
// Callers must have checked that the budget and InsLimit have not been
// reached, since a real trace exit would stop before re-dispatching.
func (e *Engine) selfLoop(used *kernel.Cycles) {
	*used += e.Cost.Dispatch
	if e.shareTr {
		*used += e.Cost.SharedCheck
	}
	e.stats.Dispatches++
	e.cache.RecordLookup(true)
	e.idx = 0
}

// leaveTrace ends execution of the current trace with control headed to
// nextPC. With the fast path on it consults the trace's successor cache:
// on a hit the target is staged in linkNext for the upcoming dispatch to
// consume without a map lookup; on a miss the trace is remembered in
// linkFrom so that dispatch can record the resolved successor. The
// dispatch cost itself is always charged at the top of the loop, keeping
// virtual-cycle accounting identical with -nofastpath.
func (e *Engine) leaveTrace(nextPC uint32, fast bool) {
	if fast {
		if next, stale := e.cur.Link(nextPC, e.cache.Epoch()); next != nil {
			e.cache.RecordLink(true)
			e.linkNext = next
		} else {
			if stale {
				e.cache.RecordLinkInvalidation()
			}
			e.cache.RecordLink(false)
			e.linkFrom = e.cur
		}
	}
	e.cur = nil
}

// compile builds the trace entered at pc at virtual time now (or weaves
// a Section 8 translation), lowers it, runs the instrumentation
// callbacks, places their calls and seals the result. sharedHit reports
// a woven translation, which is charged the weaving cost instead of a
// compile. When the trace cache holds the code this engine would
// produce, the host work after the translation is skipped: the engine
// adopts it, and the caller charges exactly what a build costs.
func (e *Engine) compile(m *mem.Memory, pc uint32, now uint64, fast bool) (ct *jit.CompiledTrace, sharedHit bool, err error) {
	var tr *jit.Trace
	if e.shareTr {
		st, ok := e.traces.Visible(pc, e.slice, now)
		if !ok {
			e.sharedMisses++
		} else {
			e.sharedHits++
			if !st.ContainsBeyondHead(e.SplitPC) && decodesFrom(m, st) {
				tr, sharedHit = st, true
			}
		}
	}
	if e.shareCode && !imageSeam.noAdopt {
		if ct = e.adopt(m, pc, now, tr); ct != nil {
			if imageSeam.adopted != nil {
				imageSeam.adopted(e, m, tr, ct)
			}
			return ct, sharedHit, nil
		}
	}
	if tr == nil {
		if tr, err = jit.BuildTraceSplit(m, pc, e.SplitPC); err != nil {
			return nil, false, err
		}
		if e.shareTr {
			e.traces.Built(tr, e.slice, now)
		}
	}
	m.WatchCode(tr.Addr, uint32(tr.NumIns)*isa.WordSize)
	ct = e.instrument(tr, fast)
	e.stats.TraceBuilds++
	if e.shareCode {
		e.offer(tr, ct)
	}
	return ct, sharedHit, nil
}

// instrument lowers tr, runs the instrumentation callbacks over it,
// places the calls they inserted and, on the fast path, seals the
// result.
func (e *Engine) instrument(tr *jit.Trace, fast bool) *jit.CompiledTrace {
	ct := jit.Compile(tr)
	view := e.newTraceView(tr, ct)
	e.instrumenting = view
	e.pending = e.pending[:0] // a callback that panicked may have left some
	for _, fn := range e.instrumenters {
		fn(view)
	}
	e.place(ct)
	if fast {
		e.seal(ct)
	}
	return ct
}

// decodesFrom reports whether tr is what m's bytes decode to now. A
// cached translation was built from another engine's memory; either
// memory may have modified that code since.
func decodesFrom(m *mem.Memory, tr *jit.Trace) bool {
	for _, b := range tr.Bbls {
		for i, in := range b.Ins {
			if got, err := m.FetchInst(b.InsAddr(i)); err != nil || got != in {
				return false
			}
		}
	}
	return true
}

// minSuperblockIns is the shortest run worth batching: the fast path's
// setup (run lookup, budget search, batched accounting) costs more than
// the reference loop saves on a run of one.
const minSuperblockIns = 2

// fastEligible reports whether instruction i of ct may live inside a
// superblock: it must not trap (SYSCALL returns to the kernel), and its
// analysis calls, if any, must all be inline adds to one counter slot,
// slot (-1 when it has no calls). Nothing else may run between a run's
// instructions.
func fastEligible(ct *jit.CompiledTrace, i int) (ok bool, slot int) {
	ci := &ct.Ins[i]
	if ci.Inst.Op == isa.OpSYSCALL {
		return false, -1
	}
	slot = -1
	for k := ci.B0; k < ci.A1; k++ {
		c := &ct.Calls[k]
		if !c.IsAdd() || (slot >= 0 && int(c.Slot) != slot) {
			return false, -1
		}
		slot = int(c.Slot)
	}
	return true, slot
}

// runSpan is one superblock run found by seal's sizing pass:
// instructions i through j-1 of the trace, whose inline adds (if any)
// target counter slot slot (-1 when none do).
type runSpan struct {
	i, j, slot int
}

// seal precomputes a freshly instrumented trace's superblock index:
// maximal runs of fast-eligible instructions, predecoded for
// cpu.ExecBlock, with cumulative per-run cycle costs so the dispatch
// loop can batch accounting and hoist the budget checks out of the
// per-instruction path. A run ends where an instruction's adds target a
// different counter than the run's, and a run with adds also carries
// their cumulative amounts and site counts. Runs after the tool's
// instrumenters, which are what decide eligibility.
//
// Sealing runs on every build, so allocation cost matters: a sizing
// pass finds the runs (into an engine-owned scratch slice) before a fill
// pass allocates single backing arrays.
func (e *Engine) seal(ct *jit.CompiledTrace) {
	cost := &e.Cost
	n := len(ct.Ins)
	spans := e.sealScratch[:0]
	covered, counted := 0, 0
	for i := 0; i < n; {
		ok, slot := fastEligible(ct, i)
		if !ok {
			i++
			continue
		}
		j := i + 1
		for ; j < n; j++ {
			ok, s := fastEligible(ct, j)
			if !ok || (s >= 0 && slot >= 0 && s != slot) {
				break
			}
			if slot < 0 {
				slot = s
			}
		}
		if j-i >= minSuperblockIns {
			covered += j - i
			if slot >= 0 {
				counted += j - i
			}
			spans = append(spans, runSpan{i: i, j: j, slot: slot})
		}
		i = j
	}
	e.sealScratch = spans
	if len(spans) == 0 {
		return
	}
	runAt := make([]int8, n)
	for r := range runAt {
		runAt[r] = -1
	}
	blocks := make([]cpu.BlockIns, covered)
	// One array holds every run's Cum, then the Adds and Sites of the
	// runs that count.
	sums := make([]uint64, covered+2*counted)
	cums, addSums := sums[:covered], sums[covered:]
	sblocks := make([]jit.Superblock, 0, len(spans))
	pos, apos := 0, 0
	for _, sp := range spans {
		i, j := sp.i, sp.j
		m := j - i
		sb := jit.Superblock{
			Start: i,
			Block: blocks[pos : pos+m : pos+m],
			Cum:   cums[pos : pos+m : pos+m],
		}
		pos += m
		if sp.slot >= 0 {
			sb.Slot = uint32(sp.slot)
			sb.Adds = addSums[apos : apos+m : apos+m]
			sb.Sites = addSums[apos+m : apos+2*m : apos+2*m]
			apos += 2 * m
		}
		var cum, adds, sites uint64
		ri := int8(len(sblocks))
		for x := i; x < j; x++ {
			ci := &ct.Ins[x]
			k := uint64(ci.A1 - ci.B0) // inline-add sites on this instruction
			cum += uint64(cost.Exec) + k*uint64(cost.Call)
			if ci.Inst.Op.IsMem() {
				cum += uint64(cost.MemSurcharge)
			}
			sb.Block[x-i] = cpu.BlockIns{Inst: ci.Inst, Next: ci.Addr + isa.WordSize}
			sb.Cum[x-i] = cum
			if sb.Adds != nil {
				for c := ci.B0; c < ci.A1; c++ {
					adds += ct.Calls[c].N
				}
				sites += k
				sb.Adds[x-i] = adds
				sb.Sites[x-i] = sites
			}
			runAt[x] = ri
		}
		sblocks = append(sblocks, sb)
	}
	ct.Sblocks = sblocks
	ct.RunAt = runAt
}

// limitReached reports whether the InsLimit pause point has been hit.
func (e *Engine) limitReached(p *kernel.Proc) bool {
	return e.InsLimit != 0 && p.InsCount >= e.InsLimit
}

// ResetPosition discards the engine's intra-trace execution position.
// Callers that swap the process's register context (SuperPin's thread
// replay) must call it so dispatch restarts from the new PC. In-flight
// trace-link state is keyed to the pre-swap PC, so it is dropped too.
func (e *Engine) ResetPosition() {
	e.cur = nil
	e.linkNext = nil
	e.linkFrom = nil
}

// runCall executes one analysis call site and returns its cycle cost.
// A plain call and an inline add each count as one analysis call.
//
// An If-call counts, evaluates the predicate, and runs the then-routine
// when it fired. Pin's register save/restore around an
// inlined predicate is charged virtually inside IfCall; nothing is copied
// on the host, because predicates are pure observers of guest state (the
// InsertIfCall contract, which pin's predicate-purity test enforces).
func (e *Engine) runCall(ctx *jit.Ctx, c *jit.Call) kernel.Cycles {
	cost := &e.Cost
	if c.Fn != nil {
		e.stats.AnalysisCalls++
		c.Fn(ctx)
		return cost.Call
	}
	if c.If != nil {
		e.stats.IfCalls++
		cy := cost.IfCall
		if c.If(ctx) && c.Then != nil {
			e.stats.ThenCalls++
			c.Then(ctx)
			cy += cost.ThenCall
		}
		return cy
	}
	e.stats.AnalysisCalls++
	*e.ctrs[c.Slot] += c.N
	return cost.Call
}
