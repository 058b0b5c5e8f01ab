package tools

import (
	"reflect"
	"testing"

	"superpin/internal/core"
	"superpin/internal/isa"
	"superpin/internal/obs"
	"superpin/internal/pin"
	"superpin/internal/workload"
)

// closureTwin counts what icount1, icount2 or opmix count, into the same
// shared areas, but through closure calls: the shape those tools had
// before inline adds, which no superblock runs through.
type closureTwin struct {
	kind   string // "icount1", "icount2" or "opmix"
	shared []uint64
}

func (c *closureTwin) Factory() core.ToolFactory {
	return func(ctl *core.ToolCtl) core.Tool {
		size := 1
		if c.kind == "opmix" {
			size = isa.NumOpcodes
		}
		inst := &twinInstance{kind: c.kind, local: make([]uint64, size)}
		shared := ctl.CreateSharedArea(inst.local, core.MergeSum)
		if ctl.SliceNum() == -1 {
			c.shared = shared
		}
		return inst
	}
}

type twinInstance struct {
	kind  string
	local []uint64
}

func (t *twinInstance) Instrument(tr *pin.Trace) {
	for _, bbl := range tr.Bbls() {
		if t.kind == "icount2" {
			n := uint64(bbl.NumIns())
			bbl.InsertCall(pin.Before, func(*pin.Ctx) { t.local[0] += n })
			continue
		}
		for _, ins := range bbl.Ins() {
			slot := 0
			if t.kind == "opmix" {
				slot = int(ins.Inst().Op)
			}
			ins.InsertCall(pin.Before, func(*pin.Ctx) { t.local[slot]++ })
		}
	}
}

// inlineTool builds a shipped counting tool and returns its factory and
// its merged counters.
func inlineTool(kind string) (core.ToolFactory, func() []uint64) {
	switch kind {
	case "icount1", "icount2":
		ic := NewIcount2(nil)
		if kind == "icount1" {
			ic = NewIcount1(nil)
		}
		return ic.Factory(), func() []uint64 { return ic.shared }
	}
	om := NewOpMix(nil)
	return om.Factory(), func() []uint64 { return om.shared }
}

// enginePinCounters are the engine statistics core.Run publishes, all but
// the superblock share, which inline adds raise on purpose.
var enginePinCounters = []string{
	"pin.exec_ins", "pin.analysis_calls", "pin.if_calls", "pin.then_calls", "pin.dispatches",
	"pin.cache.lookups", "pin.cache.misses", "pin.cache.compiles", "pin.cache.compiled_ins",
	"pin.cache.flushes", "pin.link.hits", "pin.link.misses", "pin.link.invalidations",
}

// TestInlineAddsMatchClosureTwins runs the inline-add tools against their
// closure twins under serial Pin and SuperPin: the virtual results, the
// slice records, the engine statistics and the merged counts must all be
// equal, since inline adds only batch the same counting.
func TestInlineAddsMatchClosureTwins(t *testing.T) {
	for _, name := range []string{"gzip", "mcf", "gcc", "vpr"} {
		spec, _ := workload.ByName(name)
		spec = spec.Scaled(0.01)
		prog, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := testCfg()
		for _, kind := range []string{"icount1", "icount2", "opmix"} {
			factory, counts := inlineTool(kind)
			twin := &closureTwin{kind: kind}

			inl, err := core.RunPin(cfg, prog, factory, pin.DefaultCost())
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.RunPin(cfg, prog, twin.Factory(), pin.DefaultCost())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(counts(), twin.shared) {
				t.Errorf("%s %s pin: counts %v, closure twin %v", name, kind, counts(), twin.shared)
			}
			if kind != "opmix" && inl.Engine.SuperblockIns*20 < inl.Engine.ExecIns*19 {
				t.Errorf("%s %s pin: superblocks retired %d of %d instructions, want >= 95%%",
					name, kind, inl.Engine.SuperblockIns, inl.Engine.ExecIns)
			}
			inl.Engine.SuperblockIns, ref.Engine.SuperblockIns = 0, 0
			if !reflect.DeepEqual(inl, ref) {
				t.Errorf("%s %s pin: result %+v, closure twin %+v", name, kind, inl, ref)
			}

			factory, counts = inlineTool(kind)
			twin = &closureTwin{kind: kind}
			var res [2]*core.Result
			var ms [2]*obs.Metrics
			for i, f := range []core.ToolFactory{factory, twin.Factory()} {
				opts := spOpts()
				opts.SliceMSec = 10
				ms[i] = obs.NewMetrics()
				opts.Metrics = ms[i]
				if res[i], err = core.Run(cfg, prog, f, opts); err != nil {
					t.Fatal(err)
				}
				if res[i].Err != nil {
					t.Fatal(res[i].Err)
				}
			}
			if !reflect.DeepEqual(counts(), twin.shared) {
				t.Errorf("%s %s superpin: counts %v, closure twin %v", name, kind, counts(), twin.shared)
			}
			a, b := res[0], res[1]
			if a.TotalTime != b.TotalTime || a.MasterEnd != b.MasterEnd || a.MasterIns != b.MasterIns ||
				a.SliceIns != b.SliceIns || a.ExitCode != b.ExitCode || a.Stats != b.Stats ||
				!reflect.DeepEqual(a.Slices, b.Slices) {
				t.Errorf("%s %s superpin: time %d ins %d/%d, %d slices; closure twin time %d ins %d/%d, %d slices",
					name, kind, a.TotalTime, a.MasterIns, a.SliceIns, len(a.Slices),
					b.TotalTime, b.MasterIns, b.SliceIns, len(b.Slices))
			}
			if len(a.Slices) < 2 {
				t.Errorf("%s %s superpin: %d slices, want several", name, kind, len(a.Slices))
			}
			for _, c := range enginePinCounters {
				if x, y := ms[0].Counter(c), ms[1].Counter(c); x != y {
					t.Errorf("%s %s superpin: %s %d, closure twin %d", name, kind, c, x, y)
				}
			}
		}
	}
}
