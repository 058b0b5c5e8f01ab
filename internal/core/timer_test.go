package core

import (
	"testing"

	"superpin/internal/asm"
	"superpin/internal/kernel"
	"superpin/internal/workload"
)

// TestTimerForksNeedMasterProgress runs timeslice intervals at and far
// below the per-slice fork overhead, where the timer used to fork again
// before the master retired anything and the run never ended. Every run
// must end within a budget of kernel quanta (MaxCycles, counted in
// virtual time rather than wall-clock) with every master instruction
// counted by exactly one slice.
func TestTimerForksNeedMasterProgress(t *testing.T) {
	spec, _ := workload.ByName("gzip")
	spec = spec.Scaled(0.01)
	gzip, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	threaded, err := asm.Assemble(threadedSrc)
	if err != nil {
		t.Fatal(err)
	}
	const quanta = 25_000
	for _, c := range []struct {
		name    string
		prog    *asm.Program
		msec    float64
		threads bool
	}{
		{"gzip/3ms", gzip, 3, false},
		{"gzip/1ms", gzip, 1, false},
		{"gzip/0.1ms", gzip, 0.1, false},
		{"gzip/1e-4ms", gzip, 1e-4, false},
		{"threaded/1ms", threaded, 1, true},
		{"threaded/1e-4ms", threaded, 1e-4, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := kernel.DefaultConfig()
			cfg.MaxCycles = quanta * cfg.Cost.Quantum
			var count uint64
			factory := func(ctl *ToolCtl) Tool {
				local := make([]uint64, 1)
				shared := ctl.CreateSharedArea(local, MergeSum)
				return perInsShared{local: local, shared: shared, out: &count, master: ctl.SliceNum() == -1}
			}
			opts := smallOpts(c.msec)
			opts.Threads = c.threads
			res, err := Run(cfg, c.prog, factory, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if res.MasterIns != res.SliceIns || count != res.MasterIns {
				t.Fatalf("master %d, slices %d, counted %d", res.MasterIns, res.SliceIns, count)
			}
			if len(res.Slices) < 2 {
				t.Fatalf("%d slices; the interval should force many", len(res.Slices))
			}
		})
	}
}
