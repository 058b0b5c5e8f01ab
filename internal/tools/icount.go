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
// per-instruction insertion (icount1: one analysis call after every
// instruction) or per-basic-block insertion (icount2: one call per block
// adding the block's size), exactly the two variants the paper evaluates.
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
		inst.count1 = func(*pin.Ctx) { inst.local[0]++ }
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
	count1 pin.AnalysisFn // icount1's per-instruction call, built once
}

// Instrument implements core.Tool.
func (t *icountInstance) Instrument(tr *pin.Trace) {
	if t.family.perIns {
		for _, bbl := range tr.Bbls() {
			for _, ins := range bbl.Ins() {
				ins.InsertCall(pin.Before, t.count1)
			}
		}
		return
	}
	for _, bbl := range tr.Bbls() {
		n := uint64(bbl.NumIns())
		bbl.InsertCall(pin.Before, func(*pin.Ctx) { t.local[0] += n })
	}
}

// Fini implements core.Finisher: print the merged total, like the paper's
// Figure 2 example.
func (t *icountInstance) Fini(code uint32) {
	if t.family.out != nil {
		fmt.Fprintf(t.family.out, "Total Count: %d\n", t.shared[0])
	}
}
