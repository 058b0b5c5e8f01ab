// Package jit implements the trace-based just-in-time translation layer
// of the Pin-workalike engine: basic-block and trace construction over
// guest code, the instrumented-trace representation, and the code cache.
//
// Mirroring Pin's VM (paper Section 2.2), execution units are traces — a
// straight-line sequence of basic blocks entered at the top, extended
// through the fall-through edges of conditional branches, and ended at an
// unconditional control transfer, a system call, or a size limit. The
// dispatcher (internal/pin) looks traces up in the code cache and invokes
// compilation on a miss; compilation is where instrumentation is woven in.
package jit

import (
	"slices"

	"superpin/internal/cpu"
	"superpin/internal/isa"
	"superpin/internal/mem"
	"superpin/internal/obs"
)

// Limits on trace construction, matching the spirit of Pin's trace
// selection heuristics.
const (
	MaxTraceBbls = 8
	MaxTraceIns  = 64
)

// BBL is a decoded basic block: straight-line instructions ending at the
// first control transfer (or at the trace size limit).
type BBL struct {
	// Addr is the address of the first instruction.
	Addr uint32
	// Ins are the decoded instructions; instruction i is at Addr + 4i.
	Ins []isa.Inst
}

// NumIns returns the number of instructions in the block.
func (b *BBL) NumIns() int { return len(b.Ins) }

// InsAddr returns the address of instruction i.
func (b *BBL) InsAddr(i int) uint32 { return b.Addr + uint32(i)*isa.WordSize }

// Trace is a single-entry multiple-exit sequence of basic blocks. The
// blocks' instruction slices are capped windows of one shared array, so
// appending to one block never writes into the next.
type Trace struct {
	Addr   uint32
	Bbls   []BBL
	NumIns int
	// Cut reports that the trace ended for a reason outside its own
	// instructions — at the split point, or before a word that did not
	// decode — so a build with another split or over other memory may
	// run past its end. A trace that is not cut is a function of its
	// instructions alone.
	Cut bool
}

// BuildTrace decodes a trace starting at pc from guest memory. It never
// fails on size grounds; it fails only if the first instruction cannot be
// fetched or decoded (executing from a non-code address), with the
// *cpu.Error cpu.Step reports for the same fetch, so a fault reads the
// same under every executor. An undecodable word later in the trace
// simply ends the trace early — the bad word might never be reached at
// run time, and if it is, execution faults there.
func BuildTrace(m *mem.Memory, pc uint32) (*Trace, error) {
	return BuildTraceSplit(m, pc, 0)
}

// BuildTraceSplit is BuildTrace with a forced trace boundary: when split
// is non-zero, any trace that would flow into address split ends just
// before it, so split is always a trace (and basic-block) leader.
// SuperPin slices compile with their end-signature PC as the split point,
// which keeps basic-block-granularity tools exact across slice
// boundaries: the partial block before the boundary is its own block, and
// the instructions from the boundary onward are counted only by the next
// slice.
//
// Every trace is compiled, and SuperPin slices compile thousands per
// round, so the decode runs into fixed local arrays and the result is
// copied out in three exact-size allocations: the Trace, its blocks and
// their instructions.
func BuildTraceSplit(m *mem.Memory, pc, split uint32) (*Trace, error) {
	var buf [MaxTraceIns]isa.Inst
	var ends [MaxTraceBbls]int // ends[b]: one past block b's last instruction
	n, nb := 0, 0
	cut := false
	for nb < MaxTraceBbls && n < MaxTraceIns {
		cur := pc + uint32(n)*isa.WordSize
		if split != 0 && cur == split && n > 0 {
			cut = true
			break
		}
		in, err := m.FetchInst(cur)
		if err != nil {
			if n == 0 {
				return nil, &cpu.Error{PC: pc, Err: err}
			}
			cut = true
			break
		}
		buf[n] = in
		n++
		if in.Op.EndsBlock() {
			ends[nb] = n
			nb++
			if in.Op.IsUncondBranch() || in.Op == isa.OpSYSCALL {
				break // trace ends at unconditional transfer
			}
			// Conditional branch: the trace extends along the
			// fall-through edge with a new block.
		}
	}
	if nb == 0 || ends[nb-1] < n { // stopped mid-block
		ends[nb] = n
		nb++
	}
	ins := make([]isa.Inst, n)
	copy(ins, buf[:n])
	tr := &Trace{Addr: pc, Bbls: make([]BBL, nb), NumIns: n, Cut: cut}
	start := 0
	for b := range tr.Bbls {
		end := ends[b]
		tr.Bbls[b] = BBL{Addr: pc + uint32(start)*isa.WordSize, Ins: ins[start:end:end]}
		start = end
	}
	return tr, nil
}

// AnalysisFn is an analysis routine inserted by a tool. The context
// argument exposes the architectural state of the instrumented process at
// the instrumentation point.
type AnalysisFn func(ctx *Ctx)

// PredicateFn is an inlined conditional analysis routine (InsertIfCall):
// cheap, and guarding a full AnalysisFn (InsertThenCall). It observes the
// guest and must not write its registers or memory.
type PredicateFn func(ctx *Ctx) bool

// Call is one analysis-call site attached to an instruction. It is one
// of three kinds:
//
//   - a plain call: Fn is set (InsertCall);
//   - an If/Then pair: If is set, and Then when the if guards a routine
//     (an inlined InsertIfCall guarding an InsertThenCall);
//   - an inline add: neither is set, and the call adds N to the counter
//     in slot Slot of the executing engine's counter table
//     (InsertInlineAdd). It runs no tool code and cannot request a stop,
//     so superblocks may run through it and settle the counter once per
//     run. Naming the counter by slot rather than by address is what
//     lets a trace that holds only inline adds run on any engine whose
//     table maps the slot to that engine's own counter.
type Call struct {
	Fn   AnalysisFn
	If   PredicateFn
	Then AnalysisFn
	Slot uint32
	N    uint64
}

// IsAdd reports whether c is an inline add.
func (c *Call) IsAdd() bool { return c.Fn == nil && c.If == nil }

// CallIdx indexes a trace's call slab. A trace holds at most
// MaxTraceCalls calls; the engine panics, naming the trace, when one
// asks for more.
type CallIdx uint16

// MaxTraceCalls is the largest call slab a compiled trace can index.
const MaxTraceCalls = 1<<16 - 1

// CompiledIns is one guest instruction in a compiled trace together with
// its woven-in instrumentation. Its calls live in the trace's slab:
// Calls[B0:B1] run before the instruction and Calls[B1:A1] after it. The
// struct holds no pointer, so a trace's instruction array is memory the
// collector does not scan.
type CompiledIns struct {
	Addr       uint32
	Inst       isa.Inst
	B0, B1, A1 CallIdx
}

// Superblock is a maximal run of consecutive compiled instructions that
// cannot trap into the kernel (no SYSCALL) and whose analysis calls, if
// any, are inline adds to one counter. The dispatch loop executes such a
// run as one cpu.ExecBlock call, batching cycle, instruction-count,
// counter and COW accounting once per run instead of once per
// instruction. Superblocks are a host-side execution strategy only — the
// virtual cycles charged are identical to the per-instruction reference
// loop.
type Superblock struct {
	// Start is the index into CompiledTrace.Ins of the run's first
	// instruction; Block[i] predecodes Ins[Start+i].
	Start int
	Block []cpu.BlockIns
	// Cum[i] is the cumulative virtual cost of executing Block[:i+1]
	// (per-instruction exec cost, the memory surcharge for memory ops
	// and the Call cost of each inline add; copy-on-write charges are
	// excluded and accounted separately). Monotone non-decreasing, so
	// the dispatch loop can binary-search for the exact instruction
	// where a cycle budget would trip.
	Cum []uint64
	// Slot is the counter-table slot the run's inline adds target.
	// Adds[i] and Sites[i] are the cumulative amount added to it and the
	// cumulative number of add sites over Block[:i+1]; both are nil when
	// the run has no adds, and Slot is then meaningless.
	Slot  uint32
	Adds  []uint64
	Sites []uint64
}

// numTraceLinks is the size of the per-trace successor cache. Trace
// exits are branches, so a handful of direct-mapped entries covers the
// taken/fall-through targets of a trace's few exit points.
const numTraceLinks = 4

// traceLink is one successor-cache entry: exits whose next PC equals pc
// may enter next directly, provided the code cache has not been flushed
// since the link was recorded (epoch match).
type traceLink struct {
	pc    uint32
	epoch uint64
	next  *CompiledTrace
}

// Code is the executable body of a compiled trace: its instructions, the
// call slab they index and the superblock index. It is immutable once
// sealed. Inline adds name their counters by slot, so a body whose calls
// are all inline adds holds nothing that belongs to one engine, and
// engines may share it, each through its own CompiledTrace header.
type Code struct {
	Ins []CompiledIns
	// Calls is the slab every instruction's call ranges index.
	Calls []Call

	// Sblocks and RunAt are the dispatch fast path's superblock index,
	// filled in by the pin engine after instrumentation is woven in.
	// RunAt[i] is the index into Sblocks of the run beginning coverage of
	// instruction i, or -1 when instruction i is not inside any run.
	// RunAt is nil when the trace has no runs (or the fast path is off).
	// A run holds at least two instructions, so a trace of MaxTraceIns
	// has at most 32 runs and an int8 indexes them.
	Sblocks []Superblock
	RunAt   []int8
}

// CompiledTrace is the code-cache resident, instrumented form of a trace:
// one engine's header over a Code body. The body's slice headers are
// held by value, so the dispatch loop reaches the instructions through
// the header alone; the successor links are the engine's own, because
// each engine's code cache has its own epochs and residency.
type CompiledTrace struct {
	Addr uint32
	Code

	links [numTraceLinks]traceLink
}

// Share returns a fresh header over ct's code, at ct's address, with no
// links: how an engine adopts a trace another engine compiled.
func (ct *CompiledTrace) Share() *CompiledTrace {
	return &CompiledTrace{Addr: ct.Addr, Code: ct.Code}
}

// NumIns returns the number of guest instructions in the compiled trace.
func (ct *CompiledTrace) NumIns() int { return len(ct.Ins) }

// Overlaps reports whether any of the trace's instructions lies in the
// byte range [lo, hi] (lo <= hi). A trace's instructions are
// address-contiguous, modulo 2^32 like the PC: the range overlaps when
// it starts inside the trace or the trace starts inside it.
func (ct *CompiledTrace) Overlaps(lo, hi uint32) bool {
	return lo-ct.Addr < uint32(len(ct.Ins))*isa.WordSize || ct.Addr-lo <= hi-lo
}

// SetLink records next as the successor trace for exits that transfer to
// pc, tagged with the code-cache epoch that validates it. This is the
// analogue of Pin patching a trace's exit branch to jump directly to its
// successor in the code cache (paper Section 2.2): subsequent exits to
// pc skip the dispatcher's map lookup.
func (ct *CompiledTrace) SetLink(pc uint32, next *CompiledTrace, epoch uint64) {
	ct.links[(pc>>2)%numTraceLinks] = traceLink{pc: pc, epoch: epoch, next: next}
}

// Link returns the cached successor trace for exits to pc, or nil when
// no valid link exists. An entry recorded before the last cache flush is
// dead — the target was evicted — so it is cleared and reported via
// stale rather than followed.
func (ct *CompiledTrace) Link(pc uint32, epoch uint64) (next *CompiledTrace, stale bool) {
	l := &ct.links[(pc>>2)%numTraceLinks]
	if l.next == nil || l.pc != pc {
		return nil, false
	}
	if l.epoch != epoch {
		*l = traceLink{}
		return nil, true
	}
	return l.next, false
}

// Compile lowers a trace into its executable compiled form (without
// instrumentation; the pin engine's instrumentation pass fills in the
// call slab and each instruction's ranges afterwards).
func Compile(tr *Trace) *CompiledTrace {
	ct := &CompiledTrace{Addr: tr.Addr, Code: Code{Ins: make([]CompiledIns, 0, tr.NumIns)}}
	for _, b := range tr.Bbls {
		for i, in := range b.Ins {
			ct.Ins = append(ct.Ins, CompiledIns{Addr: b.InsAddr(i), Inst: in})
		}
	}
	return ct
}

// ContainsBeyondHead reports whether pc is the address of an instruction
// inside the trace other than its entry. SuperPin slices must not use a
// shared translation that crosses their boundary PC (the boundary must be
// a block leader for exact block-granularity instrumentation), so they
// check this before adopting a shared trace.
func (t *Trace) ContainsBeyondHead(pc uint32) bool {
	if pc == 0 || pc == t.Addr {
		return false
	}
	for _, b := range t.Bbls {
		if pc >= b.Addr && pc < b.Addr+uint32(b.NumIns())*isa.WordSize &&
			(pc-b.Addr)%isa.WordSize == 0 {
			return true
		}
	}
	return false
}

// TraceCache is a SuperPin run's one store of work slices reuse, keyed
// by trace entry PC. Per PC it holds two things:
//
//   - the Section 8 translation, the uninstrumented trace of the paper's
//     shared code cache. A slice that sees one is charged the weaving
//     cost instead of a compile, so its visibility is part of the virtual
//     model. A build at virtual time t is published when t's scheduling
//     quantum ends; until then only its builder sees it. Of one quantum's
//     builds of a PC, the lowest-numbered slice's first build wins, and a
//     published translation is never replaced;
//   - sealed instrumented code and the translation it was compiled from,
//     which slices adopt on the host instead of building the trace again.
//     It changes nothing virtual, and a later offer replaces an earlier one.
//
// One goroutine drives every engine of a run, so the cache takes no locks.
type TraceCache struct {
	entries map[uint32]*traceEntry
	layout  []int // the counter-area sizes of the engines that share code
}

// traceEntry is what a TraceCache holds for one entry PC.
type traceEntry struct {
	pub *Trace         // the published translation, nil until one is
	at  uint64         // the virtual time of the builds in own
	own map[int]*Trace // each slice's first build at time at, by slice

	code *CompiledTrace // a link-free header over shareable sealed code
	src  *Trace         // the translation code was compiled from
}

// NewTraceCache creates an empty trace cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{entries: make(map[uint32]*traceEntry)}
}

func (tc *TraceCache) entry(pc uint32) *traceEntry {
	en := tc.entries[pc]
	if en == nil {
		en = &traceEntry{}
		tc.entries[pc] = en
	}
	return en
}

// winner returns the build a quantum's end publishes: the one of the
// lowest-numbered slice.
func (en *traceEntry) winner() *Trace {
	win := -1
	for slice := range en.own { //detguard:ok the minimum is order-free
		if win < 0 || slice < win {
			win = slice
		}
	}
	return en.own[win]
}

// settle publishes the builds of a quantum that ended before now.
func (en *traceEntry) settle(now uint64) {
	if len(en.own) == 0 || now <= en.at {
		return
	}
	if en.pub == nil {
		en.pub = en.winner()
	}
	clear(en.own)
}

// Lookup returns the translation published for pc, counting the builds
// of the current quantum as published. It is a pure read.
func (tc *TraceCache) Lookup(pc uint32) (*Trace, bool) {
	en := tc.entries[pc]
	if en == nil {
		return nil, false
	}
	if en.pub == nil && len(en.own) > 0 {
		return en.winner(), true
	}
	return en.pub, en.pub != nil
}

// Insert publishes tr at once, unless a translation for its PC is
// already published.
func (tc *TraceCache) Insert(tr *Trace) {
	if en := tc.entry(tr.Addr); en.pub == nil {
		en.pub = tr
	}
}

// Visible returns the translation for pc that slice sees at virtual
// time now: the published one, or else the slice's own build of the
// current quantum.
func (tc *TraceCache) Visible(pc uint32, slice int, now uint64) (*Trace, bool) {
	en := tc.entry(pc)
	en.settle(now)
	if en.pub != nil {
		return en.pub, true
	}
	tr := en.own[slice]
	return tr, tr != nil
}

// Built records that slice built tr at virtual time now. It is
// published when now's quantum ends, unless a translation for its PC
// already is, or a lower-numbered slice builds one in the same quantum;
// a slice's later builds of the PC in that quantum are ignored.
func (tc *TraceCache) Built(tr *Trace, slice int, now uint64) {
	en := tc.entry(tr.Addr)
	en.settle(now)
	if en.pub != nil || en.own[slice] != nil {
		return
	}
	if en.own == nil {
		en.own = make(map[int]*Trace)
	}
	en.at = now
	en.own[slice] = tr
}

// Code returns the sealed code offered for pc and the translation it was
// compiled from, or nil when none was offered.
func (tc *TraceCache) Code(pc uint32) (*CompiledTrace, *Trace) {
	if en := tc.entries[pc]; en != nil {
		return en.code, en.src
	}
	return nil, nil
}

// SetCode offers ct, compiled from tr, for adoption by other engines,
// replacing any earlier offer for its PC. The cache keeps a link-free
// header over ct's code.
func (tc *TraceCache) SetCode(ct *CompiledTrace, tr *Trace) {
	en := tc.entry(ct.Addr)
	en.code, en.src = ct.Share(), tr
}

// UseLayout fixes the counter-area layout of the engines that share
// code through the cache on its first call, and reports whether sizes
// is that layout.
func (tc *TraceCache) UseLayout(sizes []int) bool {
	if tc.layout == nil {
		tc.layout = sizes
	}
	return slices.Equal(tc.layout, sizes)
}

// CacheStats are cumulative code-cache statistics. The Link counters
// track the trace-linking fast path: a hit is a trace exit resolved
// through the predecessor's successor cache (no map lookup), a miss is
// an exit that fell back to the dispatcher, and an invalidation is a
// link found dead because the cache was flushed after it was recorded.
type CacheStats struct {
	Lookups     uint64
	Misses      uint64
	Compiles    uint64
	CompiledIns uint64
	Flushes     uint64

	LinkHits          uint64
	LinkMisses        uint64
	LinkInvalidations uint64
}

// CodeCache maps trace entry addresses to compiled traces, with a
// capacity measured in compiled instructions. Like Pin, exceeding the
// capacity flushes the entire cache; applications whose code footprint
// exceeds the cache recompile continually (the paper's gcc).
type CodeCache struct {
	// Capacity is the maximum resident compiled instructions; <= 0 means
	// unlimited.
	Capacity int

	// Trace, when non-nil, receives EvCompile/EvCacheFlush events. PID
	// identifies the owning process and Now is the virtual timestamp;
	// both are maintained by the owning engine before it drives the
	// cache (the cache itself has no notion of time).
	Trace *obs.Tracer
	PID   int32
	Now   uint64

	// SizeHist, when non-nil, observes the compiled size (in guest
	// instructions) of every inserted trace. It is attached by the
	// owning engine when telemetry is enabled.
	SizeHist *obs.Hist

	traces   map[uint32]*CompiledTrace
	resident int
	epoch    uint64
	stats    CacheStats
}

// NewCodeCache creates a cache holding up to capacity compiled
// instructions (<= 0 for unlimited).
func NewCodeCache(capacity int) *CodeCache {
	return &CodeCache{Capacity: capacity, traces: make(map[uint32]*CompiledTrace)}
}

// Lookup returns the compiled trace entered at pc, or nil on a miss.
// Lookup is a pure read — it mutates no statistics — making read-only
// sharing safe; the owning engine records the outcome with RecordLookup.
func (c *CodeCache) Lookup(pc uint32) *CompiledTrace {
	return c.traces[pc]
}

// RecordLookup accumulates one lookup outcome into the statistics,
// keeping mutation on the cache's owning engine rather than hidden inside
// Lookup.
func (c *CodeCache) RecordLookup(hit bool) {
	c.stats.Lookups++
	if !hit {
		c.stats.Misses++
	}
}

// RecordLink accumulates one trace-link resolution outcome.
func (c *CodeCache) RecordLink(hit bool) {
	if hit {
		c.stats.LinkHits++
	} else {
		c.stats.LinkMisses++
	}
}

// RecordLinkInvalidation accumulates one stale-link detection (a link
// recorded before the last flush).
func (c *CodeCache) RecordLinkInvalidation() { c.stats.LinkInvalidations++ }

// Epoch returns the cache's flush epoch. It increments on every Flush;
// trace links record the epoch they were created in and are dead when it
// no longer matches.
func (c *CodeCache) Epoch() uint64 { return c.epoch }

// Insert adds a compiled trace, flushing the cache first if it would
// exceed capacity. A single trace larger than the entire capacity is
// admitted capacity-exempt — no flush, and excluded from the resident
// accounting — because no amount of flushing can make it fit, and
// counting it would leave resident above capacity forever, wedging the
// cache into a whole-cache flush on every subsequent insert.
func (c *CodeCache) Insert(ct *CompiledTrace) {
	n := ct.NumIns()
	oversized := c.Capacity > 0 && n > c.Capacity
	if c.Capacity > 0 && !oversized && c.resident+n > c.Capacity && len(c.traces) > 0 {
		c.Flush()
	}
	c.traces[ct.Addr] = ct
	if !oversized {
		c.resident += n
	}
	c.stats.Compiles++
	c.stats.CompiledIns += uint64(n)
	if c.SizeHist != nil {
		c.SizeHist.Observe(uint64(n))
	}
	if c.Trace != nil {
		c.Trace.Emit(obs.Event{
			Kind: obs.EvCompile, Time: c.Now, PID: c.PID, CPU: -1,
			Arg: uint64(ct.Addr), Arg2: uint64(n),
		})
	}
}

// Invalidate discards every compiled trace whose instructions overlap
// the byte range [lo, hi] — the translations a store into code made
// stale — and returns how many it discarded. Like Flush it advances the
// epoch, so no trace link can reach a discarded trace; unlike Flush it
// counts in no statistic and emits no event: it happens only when the
// guest modifies its own code.
func (c *CodeCache) Invalidate(lo, hi uint32) int {
	n := 0
	for addr, ct := range c.traces { //detguard:ok removals commute
		if ct.Overlaps(lo, hi) {
			delete(c.traces, addr)
			if ni := ct.NumIns(); c.Capacity <= 0 || ni <= c.Capacity {
				c.resident -= ni
			}
			n++
		}
	}
	if n > 0 {
		c.epoch++
	}
	return n
}

// Flush discards every compiled trace.
func (c *CodeCache) Flush() {
	if c.Trace != nil {
		c.Trace.Emit(obs.Event{
			Kind: obs.EvCacheFlush, Time: c.Now, PID: c.PID, CPU: -1,
			Arg: uint64(c.resident),
		})
	}
	c.traces = make(map[uint32]*CompiledTrace)
	c.resident = 0
	c.epoch++
	c.stats.Flushes++
}

// Resident returns the number of compiled instructions currently cached.
func (c *CodeCache) Resident() int { return c.resident }

// Stats returns cumulative cache statistics.
func (c *CodeCache) Stats() CacheStats { return c.stats }
