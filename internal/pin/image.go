package pin

import (
	"slices"

	"superpin/internal/isa"
	"superpin/internal/jit"
	"superpin/internal/mem"
)

// ImageCache holds instrumented trace code for one program image, shared
// by the engines of one SuperPin run: ROADMAP item 14's one instrumented
// code cache per image. A slice engine that misses in its own code cache
// adopts the sealed code another slice built for the same entry PC
// instead of building, instrumenting, placing and sealing it again. Only
// host work is shared: the adopting engine inserts the code into its own
// code cache and is charged for it exactly as for a build, so virtual
// compiles, flushes and capacity stay per slice.
//
// The cache holds only code every attached engine would build alike:
//
//   - its calls are all inline adds to counters in the tool instance's
//     shared-area locals (slots below the engine's nShared), or it has
//     none. The tool's instrumentation of the trace must be a pure
//     function of the trace (the core.Tool contract);
//   - the trace was not cut short by a split point or an undecodable
//     word, so it is a function of its instructions alone.
//
// An engine adopts an entry only when its guest memory still decodes to
// the entry's instructions (self-modifying code) and its own split point
// lies outside the trace (the slice's boundary check is instrumented
// there). On a shared translation-cache hit (Engine.Shared) it adopts
// only code compiled from that very translation.
//
// Within one run a single goroutine drives every engine, so the cache
// takes no locks. Later offers for an entry PC replace earlier ones.
type ImageCache struct {
	layout  []int // the counter-area sizes every attached engine registers
	entries map[uint32]imageEntry
}

// imageEntry is one cached trace: a link-free header over the shared
// code, and the translation it was compiled from.
type imageEntry struct {
	ct  *jit.CompiledTrace
	src *jit.Trace
}

// NewImageCache returns an empty image cache.
func NewImageCache() *ImageCache {
	return &ImageCache{entries: make(map[uint32]imageEntry)}
}

// UseImage registers the tool instance's counter areas — the local
// slices of its CreateSharedArea calls, in call order — and attaches the
// engine to ic. An inline add into an area's element is named by a slot
// that is the same in every instance registering the same area sizes in
// the same order, which is what makes code that uses it shareable. The
// first engine fixes ic's area layout; an engine whose layout differs
// keeps its slots but is not attached. Call it before the engine's first
// Run.
func (e *Engine) UseImage(ic *ImageCache, areas [][]uint64) {
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
	if ic.layout == nil {
		ic.layout = sizes
	} else if !slices.Equal(ic.layout, sizes) {
		return
	}
	e.image = ic
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

// adopt returns a fresh header over the image cache's code for the trace
// entered at pc when this engine would build that very code, and nil
// otherwise. st is the shared translation the engine is about to weave,
// nil when it would build one. On adoption the engine watches the code
// in its own memory and, without a shared translation, queues the
// entry's translation for the shared cache as a build would.
func (e *Engine) adopt(m *mem.Memory, pc uint32, st *jit.Trace) *jit.CompiledTrace {
	en, ok := e.image.entries[pc]
	if !ok {
		return nil
	}
	code := en.ct
	if e.SplitPC != 0 && code.Overlaps(e.SplitPC, e.SplitPC) {
		return nil
	}
	if st != nil {
		if en.src != st {
			return nil
		}
	} else {
		if !decodesFrom(m, en.src) {
			return nil
		}
		if e.Shared != nil {
			e.queueShared(en.src)
		}
	}
	m.WatchCode(pc, uint32(len(code.Ins))*isa.WordSize)
	return code.Share()
}

// offer publishes code this engine built from tr to the image cache when
// every attached engine would build it alike (see ImageCache).
func (e *Engine) offer(tr *jit.Trace, ct *jit.CompiledTrace) {
	if tr.Cut {
		return
	}
	for i := range ct.Calls {
		if c := &ct.Calls[i]; !c.IsAdd() || int(c.Slot) >= e.nShared {
			return
		}
	}
	e.image.entries[ct.Addr] = imageEntry{ct: ct.Share(), src: tr}
}

// imageSeam changes how engines use an attached image cache. Only tests
// set it (export_test.go): noAdopt turns adoption off, and adopted, when
// non-nil, sees every adopted trace together with the engine, memory and
// shared translation it was adopted for.
var imageSeam struct {
	noAdopt bool
	adopted func(e *Engine, m *mem.Memory, st *jit.Trace, ct *jit.CompiledTrace)
}
