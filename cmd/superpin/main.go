// Command superpin runs an application on the simulated machine under a
// Pintool, in native, traditional-Pin or SuperPin mode — the analogue of
// the paper's `pin -t pintool -- application` command line, including the
// SuperPin switches -sp, -spmsec, -spmp and -spsysrecs.
//
// The application is either a benchmark from the built-in synthetic
// SPEC2000 catalog or an SVR32 assembly file:
//
//	superpin -t icount2 -sp 1 -spmsec 500 -- gcc
//	superpin -t dcache -- mcf
//	superpin -t icount1 -sp 0 -- path/to/program.svasm
//
// Tools: icount1, icount2, dcache, acache (set-associative LRU), itrace,
// branchprof, opmix, sampler, bbcount, callprof, memprofile.
//
// Observability: -trace out.json writes the measured run's event stream
// as Chrome trace-format JSON (loadable in Perfetto; any other file
// extension gets the plain-text log), and -metrics out.json writes the
// run's metrics registry snapshot. Both are off by default and cost
// nothing when off. -trace buffers through a bounded ring (-tracecap
// events, oldest dropped first).
//
// Live telemetry: -serve ADDR (or $SUPERPIN_SERVE) starts an HTTP
// server with /metrics (Prometheus text), /metrics.json, /status (live
// guest-MIPS and slice states), /trace (the flight recorder as Chrome
// trace JSON), /healthz and /debug/pprof/. -lastgasp FILE (or
// $SUPERPIN_LASTGASP) dumps the flight recorder's last -flightcap
// events on panic or SIGTERM/SIGINT. See DESIGN.md section 10.
//
// Profiling: -profile prof.json and/or -fold prof.folded attach the
// virtual-time guest profiler (sampling interval -profint, in retired
// guest instructions), print a hotspot table, and write the JSON
// artifact and/or flamegraph.pl-ready folded stacks. The profiler
// charges no virtual cycles and produces byte-identical samples in Pin
// and SuperPin mode:
//
//	superpin -t icount2 -profile gcc.prof.json -fold gcc.folded -- gcc
//
// Host-side profiling of the simulator itself: -cpuprofile / -memprofile
// write runtime/pprof profiles.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"superpin/internal/artifact"
	"superpin/internal/asm"
	"superpin/internal/core"
	"superpin/internal/kernel"
	"superpin/internal/obs"
	"superpin/internal/pin"
	"superpin/internal/prof"
	"superpin/internal/report"
	"superpin/internal/telemetry"
	"superpin/internal/tools"
	"superpin/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "superpin:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("superpin", flag.ContinueOnError)
	var (
		toolName   = fs.String("t", "icount2", "pintool: icount1|icount2|dcache|acache|itrace|branchprof|opmix|sampler|bbcount|callprof|memprofile")
		sp         = fs.Int("sp", 1, "1 = SuperPin mode, 0 = traditional Pin mode")
		spmsec     = fs.Float64("spmsec", 1000, "timeslice interval in virtual milliseconds")
		spmp       = fs.Int("spmp", 8, "maximum number of running slices")
		spsysrecs  = fs.Int("spsysrecs", 1000, "max syscall records per slice (0 disables recording)")
		spmemcheck = fs.Bool("spmemcheck", false, "enable the memory-operand signature extension")
		cpus       = fs.Int("cpus", 8, "physical CPUs of the simulated machine")
		ht         = fs.Bool("ht", true, "enable hyperthreading (doubles CPU contexts)")
		scale      = fs.Float64("scale", 0.2, "workload scale for catalog benchmarks")
		compare    = fs.Bool("compare", true, "also run natively and report relative runtime")
		budget     = fs.Int("sampler-budget", 1000, "per-slice instruction budget for the sampler tool")
		timeline   = fs.Bool("timeline", false, "print an ASCII schedule of the run (paper Figure 1)")
		detector   = fs.String("detector", "state", "boundary detector: state (paper Section 4.4) | iphistory (the rejected alternative)")
		threads    = fs.Bool("threads", false, "enable deterministic thread replay for multithreaded guests (Section 8)")
		tracePath  = fs.String("trace", "", "write the measured run's event trace to this file (.json = Chrome trace format for Perfetto, else plain text)")
		metricsOut = fs.String("metrics", "", "write the measured run's metrics registry to this file as JSON")
		cacheBytes = fs.Int("cachebytes", 1<<14, "dcache/acache total size in bytes")
		lineBytes  = fs.Int("linebytes", 32, "dcache/acache line size in bytes")
		ways       = fs.Int("ways", 4, "acache associativity")
		noFastPath = fs.Bool("nofastpath", false, "disable the engine's dispatch fast paths (trace linking, superblock batching); virtual results are identical")
		profJSON   = fs.String("profile", "", "write the guest profile (PC + shadow call stack samples) as JSON to this file; enables the profiler")
		profFold   = fs.String("fold", "", "write the guest profile as folded stacks (flamegraph.pl input) to this file; enables the profiler")
		profInt    = fs.Uint64("profint", 0, "profiler sampling interval in retired guest instructions (0 = 10007 when -profile/-fold given, else off)")
		profTop    = fs.Int("top", 10, "rows in the profiler hotspot table")
		cpuProf    = fs.String("cpuprofile", "", "write a host CPU profile (runtime/pprof) of the simulator to this file")
		memProf    = fs.String("memprofile", "", "write a host heap profile of the simulator to this file")
		cacheDir   = fs.String("cachedir", os.Getenv("SUPERPIN_CACHE"), "persistent artifact cache directory (predecoded pages; created if missing; default $SUPERPIN_CACHE; virtual results are identical warm or cold)")
		serveAddr  = fs.String("serve", os.Getenv("SUPERPIN_SERVE"), "serve live telemetry over HTTP on this address (/metrics, /metrics.json, /status, /trace, /healthz, /debug/pprof/; default $SUPERPIN_SERVE; empty = off)")
		traceCap   = fs.Int("tracecap", 1<<20, "max events held by the -trace tracer (drop-oldest ring; <= 0 = unbounded)")
		flightCap  = fs.Int("flightcap", telemetry.DefaultFlightCap, "flight-recorder ring capacity in events when -serve/-lastgasp create their own tracer")
		lastGasp   = fs.String("lastgasp", os.Getenv("SUPERPIN_LASTGASP"), "write a Perfetto trace snapshot of the flight recorder to this file on SIGTERM/SIGINT or panic (default $SUPERPIN_LASTGASP; empty = off)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: superpin [flags] -- <benchmark|file.svasm>")
		fs.PrintDefaults()
		fmt.Fprintln(os.Stderr, "\nbenchmarks:", strings.Join(workload.Names(), " "))
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		// flag.ContinueOnError has already printed the problem and the
		// usage text; returning the error makes main exit non-zero.
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("exactly one application expected, got %d", fs.NArg())
	}
	app := fs.Arg(0)

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		// Written on the way out so the heap reflects the whole run; a
		// failure here is a warning, not a run failure.
		defer func() {
			if err := writeMemProfile(*memProf); err != nil {
				fmt.Fprintln(os.Stderr, "superpin: memprofile:", err)
			}
		}()
	}

	profInterval := *profInt
	if profInterval == 0 && (*profJSON != "" || *profFold != "") {
		// Default interval: prime, so samples do not lock onto loop
		// periods; ~100 samples per million guest instructions.
		profInterval = 10007
	}

	prog, spec, err := loadApp(app, *scale)
	if err != nil {
		return err
	}

	kcfg := kernel.DefaultConfig()
	kcfg.CPUs = *cpus
	kcfg.Hyperthreading = *ht
	kcfg.MaxCycles = 500_000_000_000

	factory, err := makeTool(*toolName, toolConfig{
		samplerBudget: *budget,
		cacheBytes:    *cacheBytes,
		lineBytes:     *lineBytes,
		ways:          *ways,
	})
	if err != nil {
		return err
	}

	// The tracer and metrics registry attach to the measured run only;
	// the -compare native run stays untraced (each run has its own
	// kernel and PID space, so mixing their events in one stream would
	// be incoherent).
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewRingTracer(*traceCap)
	}
	var metrics *obs.Metrics
	if *metricsOut != "" {
		metrics = obs.NewMetrics()
	}

	// The telemetry plane (-serve, -lastgasp) rides on the same registry
	// and tracer; when neither -metrics nor -trace asked for them, the
	// plane creates its own (registry + flight-recorder ring). Inert —
	// nothing allocated, nothing attached — when both flags are off.
	plane, err := telemetry.StartPlane(telemetry.PlaneOptions{
		ServeAddr: *serveAddr,
		LastGasp:  *lastGasp,
		FlightCap: *flightCap,
		Metrics:   metrics,
		Tracer:    tracer,
	})
	if err != nil {
		return err
	}
	defer plane.Close()
	defer plane.Recorder.DumpOnPanic(plane.LastGasp)
	tracer = plane.Tracer
	metrics = plane.Metrics

	// The artifact store exists only when a cache directory is given: a
	// single CLI run has no second execution to share with, so without
	// persistence the store would be pure overhead.
	var store *artifact.Store
	if *cacheDir != "" {
		store, err = artifact.NewDiskStore(*cacheDir)
		if err != nil {
			return err
		}
	}

	var nativeTime kernel.Cycles
	if *compare {
		nres, err := core.RunNativeCached(kcfg, prog, spec.NativeMemCost, 0, store)
		if err != nil {
			return fmt.Errorf("native run: %w", err)
		}
		nativeTime = nres.Time
		fmt.Printf("native:   %12d cycles (%.2f vsec), %d instructions\n",
			nres.Time, kcfg.Cost.Seconds(nres.Time), nres.Ins)
	}

	if *sp == 0 {
		pcost := pin.DefaultCost()
		pcost.MemSurcharge = spec.PinMemCost
		pcost.NoFastPath = *noFastPath
		pcfg := kcfg
		pcfg.Trace = tracer
		pcfg.Metrics = metrics
		res, err := core.RunPinCached(pcfg, prog, factory, pcost, profInterval, store)
		if err != nil {
			return fmt.Errorf("pin run: %w", err)
		}
		fmt.Printf("pin:      %12d cycles (%.2f vsec), %d instructions, exit %d\n",
			res.Time, kcfg.Cost.Seconds(res.Time), res.Ins, res.ExitCode)
		if nativeTime > 0 {
			fmt.Printf("relative: %.1f%% of native\n", 100*float64(res.Time)/float64(nativeTime))
		}
		core.PublishPinMetrics(metrics, res)
		store.PublishMetrics(metrics)
		if err := writeProfOutputs(res.Profile, prog, *profJSON, *profFold, *profTop); err != nil {
			return err
		}
		return writeObsOutputs(*tracePath, tracer, *metricsOut, metrics)
	}

	opts := core.DefaultOptions()
	opts.SliceMSec = *spmsec
	opts.MaxSlices = *spmp
	opts.MaxSysRecs = *spsysrecs
	opts.MemCheck = *spmemcheck
	opts.Threads = *threads
	switch *detector {
	case "state":
		opts.Detector = core.DetectorState
	case "iphistory":
		opts.Detector = core.DetectorIPHistory
	default:
		return fmt.Errorf("unknown detector %q", *detector)
	}
	opts.PinCost.MemSurcharge = spec.SliceMemCost
	opts.PinCost.NoFastPath = *noFastPath
	opts.NativeMemSurcharge = spec.NativeMemCost
	opts.ProfInterval = profInterval
	opts.Trace = tracer
	opts.Metrics = metrics
	opts.Artifacts = store
	res, err := core.Run(kcfg, prog, factory, opts)
	if err != nil {
		return fmt.Errorf("superpin run: %w", err)
	}
	fmt.Printf("superpin: %12d cycles (%.2f vsec), master %d ins, %d slices, exit %d\n",
		res.TotalTime, kcfg.Cost.Seconds(res.TotalTime), res.MasterIns, res.Stats.Forks, res.ExitCode)
	st := res.Stats
	fmt.Printf("slices:   %d syscall-bounded, %d timeout-bounded, %d stalls, %d syscall records\n",
		st.SyscallForks, st.TimeoutForks, st.Stalls, st.SysRecords)
	fmt.Printf("detect:   %d quick checks, %d full, %d stack (%.2f%% quick->full)\n",
		st.QuickChecks, st.FullChecks, st.StackChecks,
		100*safeDiv(float64(st.FullChecks), float64(st.QuickChecks)))
	if nativeTime > 0 {
		nat, forkO, sleep, pipe := res.Breakdown(nativeTime)
		sec := kcfg.Cost.Seconds
		fmt.Printf("breakdown: native %.2f + fork&others %.2f + sleep %.2f + pipeline %.2f vsec\n",
			sec(nat), sec(forkO), sec(sleep), sec(pipe))
		fmt.Printf("relative: %.1f%% of native\n", 100*float64(res.TotalTime)/float64(nativeTime))
	}
	if *timeline {
		fmt.Println()
		fmt.Print(res.Timeline(100))
	}
	if err := writeProfOutputs(res.Profile, prog, *profJSON, *profFold, *profTop); err != nil {
		return err
	}
	if err := writeObsOutputs(*tracePath, tracer, *metricsOut, metrics); err != nil {
		return err
	}
	if res.Err != nil {
		return fmt.Errorf("run completed with slice errors: %w", res.Err)
	}
	return nil
}

// writeProfOutputs prints the hotspot table and writes the requested
// profile artifacts. No-op when p is nil (profiling was off).
func writeProfOutputs(p *prof.Profile, prog *asm.Program, jsonPath, foldPath string, top int) error {
	if p == nil {
		return nil
	}
	symtab := prof.NewSymtab(prog.Symbols)
	title := fmt.Sprintf("Guest hotspots (%d samples, every %d instructions)", len(p.Samples), p.Interval)
	fmt.Println(report.HotspotTable(title, p, symtab, top))
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		err = p.WriteJSON(f, symtab)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing profile: %w", err)
		}
	}
	if foldPath != "" {
		if err := os.WriteFile(foldPath, []byte(p.Folded(symtab)), 0o644); err != nil {
			return fmt.Errorf("writing folded stacks: %w", err)
		}
	}
	return nil
}

// writeMemProfile snapshots the host heap after a GC.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeObsOutputs writes the requested trace and metrics files.
func writeObsOutputs(tracePath string, tracer *obs.Tracer, metricsPath string, metrics *obs.Metrics) error {
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		events := tracer.Events()
		if strings.HasSuffix(tracePath, ".json") {
			err = obs.WriteChromeTrace(f, events)
		} else {
			err = obs.WriteText(f, events)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		err = metrics.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	return nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// loadApp resolves a catalog benchmark name or assembles a .svasm file.
func loadApp(app string, scale float64) (*asm.Program, workload.Spec, error) {
	if spec, ok := workload.ByName(app); ok {
		spec = spec.Scaled(scale)
		prog, err := spec.Build()
		return prog, spec, err
	}
	if strings.HasSuffix(app, ".svasm") {
		src, err := os.ReadFile(app)
		if err != nil {
			return nil, workload.Spec{}, err
		}
		prog, err := asm.Assemble(string(src))
		return prog, workload.Spec{Name: app}, err
	}
	return nil, workload.Spec{}, fmt.Errorf("unknown application %q (not a catalog benchmark or .svasm file)", app)
}

// toolConfig carries the user-supplied tool parameters.
type toolConfig struct {
	samplerBudget int
	cacheBytes    int
	lineBytes     int
	ways          int
}

// makeTool builds the named tool's per-process factory. Invalid tool
// parameters (cache geometry, sampler budget) come back as errors, which
// main reports on stderr with a non-zero exit.
func makeTool(name string, tc toolConfig) (core.ToolFactory, error) {
	switch name {
	case "icount1":
		return tools.NewIcount1(os.Stdout).Factory(), nil
	case "icount2":
		return tools.NewIcount2(os.Stdout).Factory(), nil
	case "dcache":
		d, err := tools.NewDCache(tc.cacheBytes, tc.lineBytes, os.Stdout)
		if err != nil {
			return nil, err
		}
		return d.Factory(), nil
	case "acache":
		a, err := tools.NewACache(tc.cacheBytes, tc.lineBytes, tc.ways, os.Stdout)
		if err != nil {
			return nil, err
		}
		return a.Factory(), nil
	case "itrace":
		tl := tools.NewITrace(nil) // keep the trace in memory; print a summary
		return wrapITrace(tl), nil
	case "branchprof":
		return tools.NewBranchProf(os.Stdout).Factory(), nil
	case "opmix":
		return tools.NewOpMix(os.Stdout).Factory(), nil
	case "sampler":
		s, err := tools.NewSampler(tc.samplerBudget, os.Stdout)
		if err != nil {
			return nil, err
		}
		return s.Factory(), nil
	case "bbcount":
		return tools.NewBBCount(os.Stdout).Factory(), nil
	case "callprof":
		return tools.NewCallProf(os.Stdout).Factory(), nil
	case "memprofile":
		return tools.NewMemProfile(os.Stdout).Factory(), nil
	default:
		return nil, fmt.Errorf("unknown tool %q", name)
	}
}

// wrapITrace prints a summary instead of the full (possibly huge) trace.
func wrapITrace(tl *tools.ITrace) core.ToolFactory {
	inner := tl.Factory()
	return func(ctl *core.ToolCtl) core.Tool {
		t := inner(ctl)
		if ctl.SliceNum() == -1 {
			return finiWrapper{Tool: t, fini: func(code uint32) {
				if f, ok := t.(core.Finisher); ok {
					f.Fini(code)
				}
				fmt.Printf("itrace: %d instructions traced\n", len(tl.Trace()))
			}}
		}
		return t
	}
}

// finiWrapper overrides a tool instance's Fini.
type finiWrapper struct {
	core.Tool
	fini func(uint32)
}

func (w finiWrapper) Fini(code uint32) { w.fini(code) }
