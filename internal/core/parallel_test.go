package core

import (
	"reflect"
	"testing"

	"superpin/internal/asm"
	"superpin/internal/kernel"
	"superpin/internal/obs"
	"superpin/internal/pin"
	"superpin/internal/workload"
)

// Options.Workers is ignored: every quantum runs on the calling
// goroutine, so a run is a pure function of program + tool + options.
// These tests pin that down for values that once changed how slices
// executed on the host.

// parRun executes one traced SuperPin run of prog at the given worker
// count and returns the full result, the merged tool count, and the
// trace event stream — everything the determinism contract covers.
func parRun(t *testing.T, prog *asm.Program, opts Options, workers int) (*Result, uint64, []obs.Event) {
	t.Helper()
	tr := obs.NewTracer()
	opts.Trace = tr
	opts.Workers = workers
	factory, count := newIcount()
	res, err := Run(testKernelCfg(), prog, factory, opts)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if res.Err != nil {
		t.Fatalf("workers=%d: %v", workers, res.Err)
	}
	return res, count(), tr.Events()
}

// assertWorkerInvariance runs prog at Workers 1, -1 and 8 and fails
// unless every run is identical to the first: the whole Result (virtual
// cycles, stats, per-slice info), the merged tool output, and the trace
// stream. It returns the Workers=1 Result.
func assertWorkerInvariance(t *testing.T, name string, prog *asm.Program, opts Options) *Result {
	t.Helper()
	ref, refCount, refEvents := parRun(t, prog, opts, 1)
	if len(refEvents) == 0 {
		t.Fatalf("%s: reference run emitted no events", name)
	}
	for _, w := range []int{-1, 8} {
		res, count, events := parRun(t, prog, opts, w)
		if count != refCount {
			t.Errorf("%s workers=%d: tool count %d, reference %d", name, w, count, refCount)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("%s workers=%d: Result diverged from reference", name, w)
		}
		if !reflect.DeepEqual(events, refEvents) {
			t.Errorf("%s workers=%d: trace diverged (%d vs %d events)",
				name, w, len(events), len(refEvents))
		}
	}
	return ref
}

// TestParallelSliceBoundariesDeterministic covers the three slice
// boundary kinds: timeout-forked slices (small timeslice),
// record-budget-forked slices (tiny syscall record budget), and the
// exit-bounded final slice (timeslice larger than the whole program).
func TestParallelSliceBoundariesDeterministic(t *testing.T) {
	prog := buildWorkload(t, 3000, 31, kernel.SysRand)
	t.Run("fork-at-timeout", func(t *testing.T) {
		opts := smallOpts(20)
		opts.MaxSysRecs = 0
		assertWorkerInvariance(t, "timeout", prog, opts)
	})
	t.Run("fork-at-syscall-budget", func(t *testing.T) {
		opts := smallOpts(200)
		opts.MaxSysRecs = 3
		assertWorkerInvariance(t, "sysbudget", prog, opts)
	})
	t.Run("exit-bounded", func(t *testing.T) {
		opts := smallOpts(10_000)
		assertWorkerInvariance(t, "exit", prog, opts)
	})
	t.Run("throttled", func(t *testing.T) {
		opts := smallOpts(20)
		opts.MaxSlices = 2
		assertWorkerInvariance(t, "throttled", prog, opts)
	})
}

// TestParallelRepeatedRunsIdentical: repeated runs of one configuration
// are identical.
func TestParallelRepeatedRunsIdentical(t *testing.T) {
	prog := buildWorkload(t, 2000, 15, kernel.SysRand)
	opts := smallOpts(20)
	ref, refCount, refEvents := parRun(t, prog, opts, 4)
	for i := 0; i < 4; i++ {
		res, count, events := parRun(t, prog, opts, 4)
		if count != refCount || !reflect.DeepEqual(res, ref) ||
			!reflect.DeepEqual(events, refEvents) {
			t.Fatalf("repeat %d: run diverged from the first", i)
		}
	}
}

// TestParallelThreadedReplayDeterministic runs the multithreaded
// application, whose group teardown exits processes mid-quantum, at
// several Workers values.
func TestParallelThreadedReplayDeterministic(t *testing.T) {
	prog, err := asm.Assemble(threadedSrc)
	if err != nil {
		t.Fatal(err)
	}
	var counts [2]uint64
	run := func(w int) *Result {
		factory := func(ctl *ToolCtl) Tool {
			local := make([]uint64, 1)
			shared := ctl.CreateSharedArea(local, MergeSum)
			slot := 0
			if w > 1 {
				slot = 1
			}
			return perInsShared{local: local, shared: shared, out: &counts[slot], master: ctl.SliceNum() == -1}
		}
		opts := smallOpts(20)
		opts.Threads = true
		opts.Workers = w
		res, err := Run(testKernelCfg(), prog, factory, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if res.Err != nil {
			t.Fatalf("workers=%d: %v", w, res.Err)
		}
		return res
	}
	ref := run(1)
	res := run(4)
	if !reflect.DeepEqual(res, ref) {
		t.Error("workers=4: threaded Result diverged from reference")
	}
	if counts[1] != counts[0] {
		t.Errorf("workers=4: replayed icount %d, reference %d", counts[1], counts[0])
	}
}

// TestParallelSharedCacheEpochStress forces constant code-cache churn —
// a capacity far below the working set flushes and recompiles traces
// throughout the run — while slices share Section 8 translations.
func TestParallelSharedCacheEpochStress(t *testing.T) {
	prog := buildWorkload(t, 2500, 31, kernel.SysRand)
	opts := smallOpts(20)
	opts.SharedCodeCache = true
	opts.PinCost.CacheCapacity = 24 // absurdly small: constant flushes
	if ref := assertWorkerInvariance(t, "cache churn", prog, opts); ref.Stats.Forks < 3 {
		t.Fatalf("only %d slices; stress needs several", ref.Stats.Forks)
	}
}

// perInsCount is an icount1-style tool: one analysis call before every
// instruction, auto-merged (sum) into a shared area.
type perInsCount struct{ local []uint64 }

func (t perInsCount) Instrument(tr *pin.Trace) {
	for _, bbl := range tr.Bbls() {
		for _, ins := range bbl.Ins() {
			ins.InsertCall(pin.Before, func(*pin.Ctx) { t.local[0]++ })
		}
	}
}

// TestWorkersIgnoredGzipIcount1 replays the case that broke bit-exactness
// when Workers sized a host goroutine pool: gzip at scale 0.05 under a
// per-instruction counter with the profiler attached. With slices on
// several host threads, whichever of master and slice stored first to a
// shared copy-on-write page was charged the page copy, and one slice's
// CPUTime moved by exactly one PageCopy. Workers 1 and 8 must agree on
// the whole Result and the trace stream.
func TestWorkersIgnoredGzipIcount1(t *testing.T) {
	spec, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip missing from the catalog")
	}
	spec = spec.Scaled(0.05)
	prog, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	kcfg := kernel.DefaultConfig()
	kcfg.MaxCycles = 200_000_000_000
	run := func(workers int) (*Result, uint64, []obs.Event) {
		opts := DefaultOptions()
		opts.SliceMSec = 40
		opts.PinCost.MemSurcharge = spec.SliceMemCost
		opts.NativeMemSurcharge = spec.NativeMemCost
		opts.ProfInterval = 997
		opts.Workers = workers
		opts.Trace = obs.NewTracer()
		var total []uint64
		factory := func(ctl *ToolCtl) Tool {
			local := make([]uint64, 1)
			shared := ctl.CreateSharedArea(local, MergeSum)
			if ctl.SliceNum() == -1 {
				total = shared
			}
			return perInsCount{local: local}
		}
		res, err := Run(kcfg, prog, factory, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Err != nil {
			t.Fatalf("workers=%d: %v", workers, res.Err)
		}
		return res, total[0], opts.Trace.Events()
	}
	ref, refCount, refEvents := run(1)
	if len(ref.Slices) < 2 {
		t.Fatalf("only %d slices; the case needs several", len(ref.Slices))
	}
	res, count, events := run(8)
	if count != refCount {
		t.Errorf("tool count %d at workers=8, %d at workers=1", count, refCount)
	}
	if !reflect.DeepEqual(res, ref) {
		for i := range res.Slices {
			if i < len(ref.Slices) && res.Slices[i] != ref.Slices[i] {
				t.Errorf("slice %d: workers=8 %+v, workers=1 %+v", i+1, res.Slices[i], ref.Slices[i])
			}
		}
		t.Error("Result differs between workers=1 and workers=8")
	}
	if !reflect.DeepEqual(events, refEvents) {
		t.Errorf("trace streams differ: %d vs %d events", len(events), len(refEvents))
	}
}
