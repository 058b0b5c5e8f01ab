package core

import "superpin/internal/pin"

// Tool is a SuperPin-aware Pintool instance. One instance is created per
// instrumented process: each slice gets a fresh instance (mirroring the
// paper, where fork gives every slice its own copy of the Pintool and
// SP_Init's reset function clears slice-local state — here the factory
// simply constructs clean state), and one instance is created for the
// master process to own shared state and the fini output.
//
// Instrument must be a pure function of the trace it is given: every
// instance, in every slice and at any time, inserts the same calls into
// the same trace. Slices rely on it for inline adds. A trace whose calls
// are all inline adds into the instance's CreateSharedArea locals (or
// that receives no calls) is built once per run, and later slices adopt
// that code without calling Instrument. Calls of any other kind, and
// inline adds to any other counter, keep the trace private to its slice.
type Tool interface {
	// Instrument is the trace-instrumentation callback, the analogue of
	// TRACE_AddInstrumentFunction's payload.
	Instrument(t *pin.Trace)
}

// SliceAware is implemented by tools that want the SP_AddSliceBeginFunction
// and SP_AddSliceEndFunction callbacks. SliceEnd is the merge function; it
// is always invoked in slice order (paper Section 4.5).
type SliceAware interface {
	Tool
	// SliceBegin runs immediately after the slice is created.
	SliceBegin(sliceNum int)
	// SliceEnd runs when the slice's results are merged; implementations
	// combine slice-local data into shared areas here.
	SliceEnd(sliceNum int)
}

// Finisher is implemented by tools that produce final output. Fini runs
// once on the master's instance, after the application has exited and
// every slice has completed and merged (the analogue of
// PIN_AddFiniFunction).
type Finisher interface {
	Tool
	Fini(code uint32)
}

// ToolFactory constructs the tool instance for one process. ctl exposes
// the SuperPin services available to that instance; factories typically
// capture tool-family state (shared output sinks) in a closure.
type ToolFactory func(ctl *ToolCtl) Tool

// MergeKind selects how CreateSharedArea auto-merges a slice's local data
// into the shared region when the slice ends.
type MergeKind uint8

// Auto-merge modes.
const (
	MergeNone MergeKind = iota // manual merge via SliceEnd
	MergeSum                   // shared[i] += local[i]
	MergeMax                   // shared[i] = max(shared[i], local[i])
	MergeMin                   // shared[i] = min(shared[i], local[i]), empty-aware is the tool's job
)

// sharedBinding pairs an instance's local area with its family region.
type sharedBinding struct {
	local  []uint64
	shared []uint64
	kind   MergeKind
}

// ToolCtl is the per-instance SuperPin API surface — the Go rendering of
// the SP_* calls from paper Section 5.
type ToolCtl struct {
	eng      *Engine // nil outside SuperPin mode
	sliceNum int     // -1 for the master / plain-Pin instance
	areaIdx  int
	bindings []sharedBinding
	endFlag  func()
}

// SuperPin reports whether the tool is running under SuperPin (the return
// value of SP_Init).
func (c *ToolCtl) SuperPin() bool { return c.eng != nil }

// SliceNum returns this instance's slice number, or -1 for the master /
// plain-Pin instance.
func (c *ToolCtl) SliceNum() int { return c.sliceNum }

// EndSlice instructs SuperPin to terminate this slice immediately
// (SP_EndSlice). Outside a slice it is a no-op. The slice stops before
// executing the instruction whose analysis call invoked EndSlice; tools
// such as sampled profilers use this to bound per-slice instrumentation
// work (the Shadow Profiler pattern cited in the paper).
func (c *ToolCtl) EndSlice() {
	if c.endFlag != nil {
		c.endFlag()
	}
}

// CreateSharedArea returns a region shared across all instances of this
// tool (SP_CreateSharedArea). In SuperPin mode the returned slice is the
// family-wide shared region and local is registered for auto-merging per
// kind when the slice ends; outside SuperPin mode it returns local itself,
// so the same tool code works unchanged under plain Pin.
//
// Instances must call CreateSharedArea in the same order with the same
// sizes (they run the same factory code, so they naturally do).
func (c *ToolCtl) CreateSharedArea(local []uint64, kind MergeKind) []uint64 {
	if c.eng == nil {
		return local
	}
	shared := c.eng.sharedArea(c.areaIdx, len(local))
	c.areaIdx++
	c.bindings = append(c.bindings, sharedBinding{local: local, shared: shared, kind: kind})
	return shared
}

// localAreas returns the local slices of the instance's shared areas, in
// registration order: the counter areas its slice engine names by slot.
func (c *ToolCtl) localAreas() [][]uint64 {
	areas := make([][]uint64, len(c.bindings))
	for i, b := range c.bindings {
		areas[i] = b.local
	}
	return areas
}

// autoMerge applies the registered auto-merge bindings.
func (c *ToolCtl) autoMerge() {
	for _, b := range c.bindings {
		switch b.kind {
		case MergeSum:
			for i := range b.local {
				b.shared[i] += b.local[i]
			}
		case MergeMax:
			for i := range b.local {
				if b.local[i] > b.shared[i] {
					b.shared[i] = b.local[i]
				}
			}
		case MergeMin:
			for i := range b.local {
				if b.local[i] < b.shared[i] {
					b.shared[i] = b.local[i]
				}
			}
		}
	}
}
