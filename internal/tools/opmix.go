package tools

import (
	"fmt"
	"io"

	"superpin/internal/core"
	"superpin/internal/isa"
	"superpin/internal/pin"
)

// OpMix profiles the dynamic instruction-type mix (one counter per
// opcode), an instruction-granularity tool with auto-merged (summed)
// shared counters — the "profiling dynamic instruction types" workload
// class the paper mentions in Section 4.5.
type OpMix struct {
	out    io.Writer
	shared []uint64
}

// NewOpMix creates an opcode-mix profiler. out may be nil.
func NewOpMix(out io.Writer) *OpMix { return &OpMix{out: out} }

// Factory returns the per-process tool factory.
func (om *OpMix) Factory() core.ToolFactory {
	return func(ctl *core.ToolCtl) core.Tool {
		inst := &opmixInstance{family: om, local: make([]uint64, isa.NumOpcodes)}
		inst.shared = ctl.CreateSharedArea(inst.local, core.MergeSum)
		if ctl.SliceNum() == -1 {
			om.shared = inst.shared
		}
		return inst
	}
}

// Count returns the merged dynamic count for op. Valid after the run.
func (om *OpMix) Count(op isa.Opcode) uint64 {
	if om.shared == nil || !op.Valid() {
		return 0
	}
	return om.shared[op]
}

// Total returns the merged total dynamic instruction count.
func (om *OpMix) Total() uint64 {
	var n uint64
	for _, v := range om.shared {
		n += v
	}
	return n
}

type opmixInstance struct {
	family *OpMix
	local  []uint64
	shared []uint64
}

// Instrument implements core.Tool.
func (t *opmixInstance) Instrument(tr *pin.Trace) {
	for _, bbl := range tr.Bbls() {
		for _, ins := range bbl.Ins() {
			ins.InsertInlineAdd(pin.Before, &t.local[ins.Inst().Op], 1)
		}
	}
}

// Fini implements core.Finisher.
func (t *opmixInstance) Fini(code uint32) {
	if t.family.out == nil {
		return
	}
	for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
		if n := t.shared[op]; n > 0 {
			fmt.Fprintf(t.family.out, "%-8v %12d\n", op, n)
		}
	}
}
