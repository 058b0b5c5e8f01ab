package tools

import (
	"fmt"
	"io"

	"superpin/internal/core"
	"superpin/internal/jit"
	"superpin/internal/pin"
)

// Watch is a register watchpoint tool: at the head of every basic block
// it checks whether a watched register has dropped below a fence
// address, and counts the blocks entered in that state. The canonical
// use is a data-fence watchpoint — watch the tool's data-base register
// against the start of the data region, so any block entered with the
// pointer escaped below the fence is caught and counted.
//
// The check is attached with InsertIfCondCall, declaring its shape
// (`R[reg] < fence`, unsigned) to the engine. Where the load-time value
// analysis proves the register's range, the predicate folds at compile
// time and the per-block check costs the host nothing — on well-behaved
// programs the watchpoint is provably never hit, and the engine's
// pin.sa.ip.folded counter records the checks it never had to run. The
// count and the virtual timeline are byte-identical with folding off
// (`spbench -exp diff`'s saintra and nosa arms prove it): folding
// substitutes the verdict
// the predicate would have computed, never a different one.
type Watch struct {
	reg     uint8
	fence   uint32
	declare bool
	out     io.Writer
	shared  []uint64
}

// NewWatch returns a watchpoint on reg against fence, declaring the
// predicate shape to the engine (fold-eligible).
func NewWatch(out io.Writer, reg uint8, fence uint32) *Watch {
	return &Watch{reg: reg, fence: fence, declare: true, out: out}
}

// NewWatchOpaque is NewWatch without the shape declaration: the
// predicate is inserted as a plain InsertIfCall the engine cannot fold,
// so every check evaluates at run time — same checks, same counts as
// NewWatch, with the value analysis out of the picture.
func NewWatchOpaque(out io.Writer, reg uint8, fence uint32) *Watch {
	return &Watch{reg: reg, fence: fence, out: out}
}

// Factory returns the per-process tool factory.
func (w *Watch) Factory() core.ToolFactory {
	return func(ctl *core.ToolCtl) core.Tool {
		inst := &watchInstance{family: w, local: make([]uint64, 1)}
		reg, fence := w.reg, w.fence
		inst.pred = func(ctx *pin.Ctx) bool { return ctx.Regs.R[reg] < fence }
		inst.hit = func(*pin.Ctx) { inst.local[0]++ }
		inst.shared = ctl.CreateSharedArea(inst.local, core.MergeSum)
		if ctl.SliceNum() == -1 {
			w.shared = inst.shared
		}
		return inst
	}
}

// Hits returns the final merged count of blocks entered with the
// watched register below the fence. Valid after the run.
func (w *Watch) Hits() uint64 {
	if w.shared == nil {
		return 0
	}
	return w.shared[0]
}

type watchInstance struct {
	family *Watch
	local  []uint64
	shared []uint64

	// The If/Then pair inserted at every block head, built once.
	pred pin.PredicateFn
	hit  pin.AnalysisFn
}

// Instrument implements core.Tool.
func (t *watchInstance) Instrument(tr *pin.Trace) {
	reg, fence := t.family.reg, t.family.fence
	for _, bbl := range tr.Bbls() {
		head := bbl.InsHead()
		if t.family.declare {
			// The predicate is pure and returns exactly the declared
			// comparison — the InsertIfCondCall contract that makes the
			// engine's compile-time folding sound.
			head.InsertIfCondCall(pin.Before, t.pred,
				jit.Cond{Kind: jit.CondLTU, Reg: reg, Imm: fence})
		} else {
			head.InsertIfCall(pin.Before, t.pred)
		}
		head.InsertThenCall(pin.Before, t.hit)
	}
}

// Fini implements core.Finisher.
func (t *watchInstance) Fini(code uint32) {
	if t.family.out != nil {
		fmt.Fprintf(t.family.out, "Watchpoint hits: %d\n", t.shared[0])
	}
}
