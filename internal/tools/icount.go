// Package tools provides the SuperPin-aware Pintools used by the paper's
// evaluation and examples: the icount1/icount2 instruction counters
// (Section 5.1 / Section 6), the dcache data-cache SuperTool with
// assume-hit reconciliation (Section 5.2), an instruction tracer with
// in-order merge, a branch profiler, an opcode-mix profiler, and a
// Shadow-Profiler-style sampler built on SP_EndSlice.
//
// Every tool follows the paper's structure: a factory creates one
// instance per process (master and each slice); slice-local data is
// merged into shared state in slice order; the same tool code runs
// unchanged under plain Pin, where CreateSharedArea hands back the local
// data.
package tools

import (
	"fmt"
	"io"

	"superpin/internal/core"
	"superpin/internal/pin"
)

// Icount counts dynamically executed instructions, in one of two modes:
// per-instruction insertion (icount1: one inline add of 1 before every
// instruction) or per-basic-block insertion (icount2: one inline add of
// the block's size at its head), exactly the two variants the paper
// evaluates. Both are Pin's inlined docount: counter adds with no
// analysis routine.
type Icount struct {
	perIns bool
	out    io.Writer
	shared []uint64
}

// NewIcount1 returns an instruction-granularity counter.
func NewIcount1(out io.Writer) *Icount { return &Icount{perIns: true, out: out} }

// NewIcount2 returns a basic-block-granularity counter (paper Figure 2).
func NewIcount2(out io.Writer) *Icount { return &Icount{perIns: false, out: out} }

// Factory returns the per-process tool factory.
func (ic *Icount) Factory() core.ToolFactory {
	return func(ctl *core.ToolCtl) core.Tool {
		inst := &icountInstance{family: ic, local: make([]uint64, 1)}
		inst.shared = ctl.CreateSharedArea(inst.local, core.MergeSum)
		if ctl.SliceNum() == -1 {
			ic.shared = inst.shared
		}
		return inst
	}
}

// Total returns the final merged instruction count. Valid after the run.
func (ic *Icount) Total() uint64 {
	if ic.shared == nil {
		return 0
	}
	return ic.shared[0]
}

type icountInstance struct {
	family *Icount
	local  []uint64
	shared []uint64
}

// Instrument implements core.Tool.
func (t *icountInstance) Instrument(tr *pin.Trace) {
	if t.family.perIns {
		for _, bbl := range tr.Bbls() {
			for _, ins := range bbl.Ins() {
				ins.InsertInlineAdd(pin.Before, &t.local[0], 1)
			}
		}
		return
	}
	for _, bbl := range tr.Bbls() {
		bbl.InsertInlineAdd(pin.Before, &t.local[0], uint64(bbl.NumIns()))
	}
}

// Fini implements core.Finisher: print the merged total, like the paper's
// Figure 2 example.
func (t *icountInstance) Fini(code uint32) {
	if t.family.out != nil {
		fmt.Fprintf(t.family.out, "Total Count: %d\n", t.shared[0])
	}
}
