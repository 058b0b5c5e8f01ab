package pin_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"superpin/internal/asm"
	"superpin/internal/core"
	"superpin/internal/kernel"
	"superpin/internal/pin"
	"superpin/internal/tools"
	"superpin/internal/workload"
)

// purityCheck wraps predicates so every evaluation compares the guest
// registers, PC included, before and after the predicate ran. The engine
// copies nothing around a predicate, so a predicate that writes guest
// state would change the run; this check is what enforces the
// pure-observer contract instead of assuming it. SuperPin slices run on
// several host threads, hence the atomics.
type purityCheck struct {
	checked    atomic.Uint64
	violations atomic.Uint64
	mu         sync.Mutex
	first      string // the first violation, for the failure message
}

func (pc *purityCheck) wrap(pred pin.PredicateFn) pin.PredicateFn {
	return func(c *pin.Ctx) bool {
		before := *c.Regs
		fire := pred(c)
		pc.checked.Add(1)
		if *c.Regs != before {
			pc.violations.Add(1)
			pc.mu.Lock()
			if pc.first == "" {
				pc.first = fmt.Sprintf("predicate at %#x changed the registers:\nbefore %+v\nafter  %+v",
					c.PC, before, *c.Regs)
			}
			pc.mu.Unlock()
		}
		return fire
	}
}

// install wraps every predicate instrumented until the test ends.
func (pc *purityCheck) install(t *testing.T) {
	t.Cleanup(pin.SetPredicateWrapper(pc.wrap))
}

func purityCfg() kernel.Config {
	cfg := kernel.DefaultConfig()
	cfg.MaxCycles = 5_000_000_000
	return cfg
}

func watchFactory(opaque bool) core.ToolFactory {
	if opaque {
		return tools.NewWatchOpaque(nil, workload.DataReg, workload.DataBase).Factory()
	}
	return tools.NewWatch(nil, workload.DataReg, workload.DataBase).Factory()
}

// TestPredicatesLeaveGuestStateAlone runs every predicate-inserting tool
// and detector the project ships — the watchpoint, built through both
// NewWatch and NewWatchOpaque, under serial Pin, SuperPin's default two-register quick check and the
// IP-history detector, whose After-predicate pushes to the IP ring — over
// two catalog programs, and requires each run to evaluate predicates
// without one of them writing a guest register.
func TestPredicatesLeaveGuestStateAlone(t *testing.T) {
	runs := []struct {
		name string
		run  func(*asm.Program) error
	}{
		{"pin/watch", func(p *asm.Program) error {
			_, err := core.RunPin(purityCfg(), p, watchFactory(false), pin.DefaultCost())
			return err
		}},
		{"pin/watch-opaque", func(p *asm.Program) error {
			_, err := core.RunPin(purityCfg(), p, watchFactory(true), pin.DefaultCost())
			return err
		}},
		{"superpin/watch", func(p *asm.Program) error {
			return runSuperPin(p, core.DetectorState)
		}},
		{"superpin-iphistory/watch", func(p *asm.Program) error {
			return runSuperPin(p, core.DetectorIPHistory)
		}},
	}
	for _, bench := range []string{"gzip", "mcf"} {
		spec, ok := workload.ByName(bench)
		if !ok {
			t.Fatalf("no catalog program %q", bench)
		}
		prog, err := spec.Scaled(0.005).Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range runs {
			t.Run(bench+"/"+r.name, func(t *testing.T) {
				var pc purityCheck
				pc.install(t)
				if err := r.run(prog); err != nil {
					t.Fatal(err)
				}
				if pc.checked.Load() == 0 {
					t.Fatal("no predicate was evaluated")
				}
				if n := pc.violations.Load(); n != 0 {
					t.Fatalf("%d of %d predicate calls wrote guest registers; first: %s",
						n, pc.checked.Load(), pc.first)
				}
			})
		}
	}
}

func runSuperPin(p *asm.Program, det core.DetectorKind) error {
	opts := core.DefaultOptions()
	opts.SliceMSec = 50
	opts.Detector = det
	res, err := core.Run(purityCfg(), p, watchFactory(false), opts)
	if err != nil {
		return err
	}
	if res.Err != nil {
		return res.Err
	}
	// The detector's own predicate runs only where a slice ends on a
	// timeout signature; demand that it ran, not just the tool's.
	if res.Stats.QuickChecks == 0 {
		return fmt.Errorf("%d slices, but the boundary detector evaluated no predicate", len(res.Slices))
	}
	return nil
}

// clobberSrc loops without reading r5, so a predicate that writes r5
// changes no control flow and the run completes.
const clobberSrc = `
	.entry main
main:
	li r10, 0
	li r11, 100
loop:
	addi r10, r10, 1
	blt r10, r11, loop
	li r1, 1
	li r2, 0
	syscall
`

// clobberTool is a broken tool: its block-head predicate writes r5.
type clobberTool struct{}

func (clobberTool) Instrument(tr *pin.Trace) {
	for _, bbl := range tr.Bbls() {
		bbl.InsHead().InsertIfCall(pin.Before, func(c *pin.Ctx) bool {
			c.Regs.R[5]++
			return false
		})
	}
}

// TestPurityCheckReportsWritingPredicate: the check is not vacuous — a
// predicate writing r5 is reported.
func TestPurityCheckReportsWritingPredicate(t *testing.T) {
	prog, err := asm.Assemble(clobberSrc)
	if err != nil {
		t.Fatal(err)
	}
	var pc purityCheck
	pc.install(t)
	factory := func(*core.ToolCtl) core.Tool { return clobberTool{} }
	if _, err := core.RunPin(purityCfg(), prog, factory, pin.DefaultCost()); err != nil {
		t.Fatal(err)
	}
	if pc.checked.Load() == 0 || pc.violations.Load() == 0 {
		t.Fatalf("writing predicate not reported: %d checked, %d violations",
			pc.checked.Load(), pc.violations.Load())
	}
}
