package pin_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"superpin/internal/asm"
	"superpin/internal/core"
	"superpin/internal/isa"
	"superpin/internal/obs"
	"superpin/internal/pin"
	"superpin/internal/tools"
	"superpin/internal/workload"
)

// imageScale is the catalog scale of the code-adoption tests, and
// imageMSec the slice interval that gives them a few dozen slices.
const (
	imageScale = 0.01
	imageMSec  = 2000 * imageScale
)

// imageTool is one of the shipped inline-add tools with a readout of
// its merged answer.
type imageTool struct {
	name string
	mk   func() (core.ToolFactory, func() []uint64)
}

var imageTools = []imageTool{
	{"icount1", func() (core.ToolFactory, func() []uint64) {
		ic := tools.NewIcount1(nil)
		return ic.Factory(), func() []uint64 { return []uint64{ic.Total()} }
	}},
	{"icount2", func() (core.ToolFactory, func() []uint64) {
		ic := tools.NewIcount2(nil)
		return ic.Factory(), func() []uint64 { return []uint64{ic.Total()} }
	}},
	{"opmix", func() (core.ToolFactory, func() []uint64) {
		om := tools.NewOpMix(nil)
		return om.Factory(), func() []uint64 {
			out := make([]uint64, isa.NumOpcodes)
			for op := range out {
				out[op] = om.Count(isa.Opcode(op))
			}
			return out
		}
	}},
}

// imageRun is one SuperPin run's result, tool answer and engine metrics.
type imageRun struct {
	res     *core.Result
	answer  []uint64
	metrics *obs.Metrics
}

// runImage runs prog under SuperPin with tool and opts, the code-adoption
// seam set to noAdopt and check for the run's duration.
func runImage(t *testing.T, prog *asm.Program, tool imageTool, opts core.Options, noAdopt bool, check func(uint32, string)) imageRun {
	t.Helper()
	defer pin.SetImageSeam(noAdopt, check)()
	factory, answer := tool.mk()
	opts.Metrics = obs.NewMetrics()
	res, err := core.Run(purityCfg(), prog, factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return imageRun{res: res, answer: answer(), metrics: opts.Metrics}
}

// adoptionCheck counts the adopted traces the seam rebuilt and keeps the
// first difference it found.
type adoptionCheck struct {
	adopted int
	first   string
}

func (c *adoptionCheck) check(pc uint32, diff string) {
	c.adopted++
	if diff != "" && c.first == "" {
		c.first = fmt.Sprintf("trace %#x: %s", pc, diff)
	}
}

// TestImageAdoptionMatchesBuilding is the trace cache's code-adoption differential and
// purity check (ROADMAP 14(c)). Every inline-add tool runs over four
// catalog programs, with and without the Section 8 shared translation
// cache, profiled, twice: once adopting, with every adopted trace
// rebuilt on the adopting engine and required to equal what it adopted —
// instructions, calls with their counters resolved, superblocks and run
// index — and once with adoption off. The two runs' whole core.Result
// and tool answers must be identical.
func TestImageAdoptionMatchesBuilding(t *testing.T) {
	for _, bench := range []string{"gcc", "gzip", "mcf", "vortex"} {
		spec, ok := workload.ByName(bench)
		if !ok {
			t.Fatalf("no catalog program %q", bench)
		}
		prog, err := spec.Scaled(imageScale).Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, tool := range imageTools {
			for _, shared := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/shared=%t", bench, tool.name, shared), func(t *testing.T) {
					opts := core.DefaultOptions()
					opts.SliceMSec = imageMSec
					opts.SharedCodeCache = shared
					opts.ProfInterval = 997
					var ac adoptionCheck
					got := runImage(t, prog, tool, opts, false, ac.check)
					want := runImage(t, prog, tool, opts, true, nil)
					if ac.first != "" {
						t.Fatalf("%d adopted traces; an adopted trace differs from its rebuild: %s", ac.adopted, ac.first)
					}
					if ac.adopted == 0 {
						t.Fatalf("%d slices adopted no trace", len(got.res.Slices))
					}
					if len(got.res.Slices) < 8 {
						t.Fatalf("%d slices", len(got.res.Slices))
					}
					if !reflect.DeepEqual(got.res, want.res) {
						t.Fatalf("adopting run differs from building run:\n%+v\n%+v", got.res.Stats, want.res.Stats)
					}
					if !reflect.DeepEqual(got.answer, want.answer) {
						t.Fatalf("tool answer %v, building run %v", got.answer, want.answer)
					}
					if b := want.metrics.Counter("pin.trace_builds"); b != want.metrics.Counter("pin.cache.compiles") {
						t.Fatalf("with adoption off the slices built %d traces and compiled %d", b, want.metrics.Counter("pin.cache.compiles"))
					}
				})
			}
		}
	}
}

// togglingSMCSrc patches its own loop every 64 iterations: the increment
// at patch alternates between +1 and +3, so slices fork with either
// version in memory, and the trace cache holds the patched trace as
// whichever slice built it last. Each iteration also calls a 60-
// instruction routine, where most slice boundaries land, so that most
// slices run the patched trace without their boundary in it.
func togglingSMCSrc(iters int) string {
	inc1, err := isa.Encode(isa.Inst{Op: isa.OpADDI, Rd: 20, Rs1: 20, Imm: 1})
	if err != nil {
		panic(err)
	}
	inc3, err := isa.Encode(isa.Inst{Op: isa.OpADDI, Rd: 20, Rs1: 20, Imm: 3})
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf(`
	.entry main
main:
	la r10, patch
	la r11, alt
	li r20, 0
	li r21, %d
	li r22, 0
	li r23, 0
loop:
patch:
	addi r20, r20, 1
	addi r22, r22, 1
	call work
	andi r24, r22, 63
	bne r24, r0, loop
	xori r23, r23, 4
	add r25, r11, r23
	lw r12, (r25)
	sw r12, (r10)
	blt r22, r21, loop
	li r1, 1
	andi r2, r20, 255
	syscall
work:
%s	ret
	.org 0x8000
alt:
	.word 0x%08x
	.word 0x%08x
`, iters, strings.Repeat("\taddi r26, r26, 1\n", 60), inc1, inc3)
}

// TestImageAdoptionSelfModifyingCode runs a guest that keeps patching
// its code under SuperPin with short slices: later slices find the
// patched trace in the trace cache as an earlier slice built it, before
// or after a patch, and must adopt it only when their own memory holds
// the same code. Count, exit code and the whole result equal native and
// the run with adoption off.
func TestImageAdoptionSelfModifyingCode(t *testing.T) {
	const iters = 64 * 40
	prog, err := asm.Assemble(togglingSMCSrc(iters))
	if err != nil {
		t.Fatal(err)
	}
	native, err := core.RunNative(purityCfg(), prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 20 runs of 64 iterations at +1 and 20 at +3.
	if want := uint32(iters/2*1+iters/2*3) & 255; native.ExitCode != want {
		t.Fatalf("native exit %d, want %d", native.ExitCode, want)
	}
	opts := core.DefaultOptions()
	opts.SliceMSec = 20
	var ac adoptionCheck
	patched := 0
	got := runImage(t, prog, imageTools[0], opts, false, func(pc uint32, diff string) {
		ac.check(pc, diff)
		if pc == prog.Symbols["patch"] {
			patched++
		}
	})
	want := runImage(t, prog, imageTools[0], opts, true, nil)
	if ac.first != "" {
		t.Fatalf("an adopted trace differs from its rebuild: %s", ac.first)
	}
	if patched == 0 {
		t.Fatalf("%d slices adopted %d traces, none at the patched address", len(got.res.Slices), ac.adopted)
	}
	if got.res.ExitCode != native.ExitCode || got.answer[0] != native.Ins {
		t.Fatalf("exit %d, count %d; native exit %d, %d instructions",
			got.res.ExitCode, got.answer[0], native.ExitCode, native.Ins)
	}
	if !reflect.DeepEqual(got.res, want.res) || !reflect.DeepEqual(got.answer, want.answer) {
		t.Fatalf("adopting run differs from building run: %+v vs %+v", got.res.Stats, want.res.Stats)
	}
	t.Logf("%d slices adopted %d traces, %d at the patched address", len(got.res.Slices), ac.adopted, patched)
}

// privateCounter is a tool whose inline add targets a struct field, not
// a CreateSharedArea local: its instrumented traces are bound to one
// instance, so no slice may adopt them. SliceEnd merges the field.
type privateCounter struct {
	n      uint64
	shared []uint64
}

func (t *privateCounter) Instrument(tr *pin.Trace) {
	for _, bbl := range tr.Bbls() {
		bbl.InsertInlineAdd(pin.Before, &t.n, uint64(bbl.NumIns()))
	}
}

func (t *privateCounter) SliceBegin(int) {}
func (t *privateCounter) SliceEnd(int)   { t.shared[0] += t.n }

// TestImagePrivateCounterAdoptsNothing: a private-counter tool counts
// exactly under SuperPin, and every slice builds every trace it runs.
func TestImagePrivateCounterAdoptsNothing(t *testing.T) {
	spec, _ := workload.ByName("gzip")
	prog, err := spec.Scaled(imageScale).Build()
	if err != nil {
		t.Fatal(err)
	}
	native, err := core.RunNative(purityCfg(), prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	var total []uint64
	tool := imageTool{"private", func() (core.ToolFactory, func() []uint64) {
		return func(ctl *core.ToolCtl) core.Tool {
			inst := &privateCounter{}
			inst.shared = ctl.CreateSharedArea(make([]uint64, 1), core.MergeNone)
			if ctl.SliceNum() == -1 {
				total = inst.shared
			}
			return inst
		}, func() []uint64 { return total }
	}}
	opts := core.DefaultOptions()
	opts.SliceMSec = imageMSec
	got := runImage(t, prog, tool, opts, false, nil)
	if got.answer[0] != native.Ins {
		t.Fatalf("count %d, native executed %d", got.answer[0], native.Ins)
	}
	builds, compiles := got.metrics.Counter("pin.trace_builds"), got.metrics.Counter("pin.cache.compiles")
	if len(got.res.Slices) < 2 || builds != compiles {
		t.Fatalf("%d slices built %d traces and compiled %d, want every compile built", len(got.res.Slices), builds, compiles)
	}
}

// TestImageTraceBuilds holds SuperPin's host trace builds on gcc to
// ROADMAP 14's target: at most twice what serial Pin builds on the same
// program, while the slices still compile, in virtual time, many times
// more. What a slice still builds is mostly private to it: the traces
// that run through its boundary PC, about three a slice, so the interval
// gives nine slices on a program of 43 traces.
func TestImageTraceBuilds(t *testing.T) {
	spec, _ := workload.ByName("gcc")
	prog, err := spec.Scaled(0.05).Build()
	if err != nil {
		t.Fatal(err)
	}
	ic := tools.NewIcount1(nil)
	pinRes, err := core.RunPin(purityCfg(), prog, ic.Factory(), pin.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.SliceMSec = 250
	sp := runImage(t, prog, imageTools[0], opts, false, nil)
	builds, compiles := sp.metrics.Counter("pin.trace_builds"), sp.metrics.Counter("pin.cache.compiles")
	t.Logf("%d slices: %d trace builds, %d virtual compiles; serial Pin builds %d", len(sp.res.Slices), builds, compiles, pinRes.Engine.TraceBuilds)
	if pinRes.Engine.TraceBuilds != pinRes.Cache.Compiles {
		t.Fatalf("serial Pin built %d traces and compiled %d", pinRes.Engine.TraceBuilds, pinRes.Cache.Compiles)
	}
	if builds > 2*pinRes.Engine.TraceBuilds || compiles < 4*pinRes.Cache.Compiles {
		t.Fatalf("SuperPin built %d traces and compiled %d; serial Pin built %d", builds, compiles, pinRes.Engine.TraceBuilds)
	}
}
