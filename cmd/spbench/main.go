// Command spbench regenerates the SuperPin paper's evaluation (Section
// 6): Figures 3-7 and the Section 4.4 signature-detection statistics, as
// aligned text tables and optionally CSV files. It also runs the
// differential harness that holds every host-side mechanism to the reference
// configuration. Host speed is measured by `go run ./benchmark`, not here.
//
//	spbench                      # every experiment at the default scale
//	spbench -exp fig6 -scale 1   # one experiment, full-size workloads
//	spbench -csv out/            # also write out/fig3.csv etc.
//	spbench -j 8                 # fan runs out over 8 host workers
//	spbench -trace-dir traces/   # write per-benchmark Chrome trace JSON
//	spbench -exp diff            # verify no host-side mechanism changes a virtual result
//	spbench -cachedir dir        # share predecoded pages across runs
//	spbench -cpuprofile cpu.pprof  # host CPU profile of the harness itself
//	spbench -serve 127.0.0.1:8080  # live /metrics /status /trace HTTP plane
//	spbench -lastgasp crash.json   # dump the flight recorder on panic/SIGTERM
//	spbench -flightcap 65536       # flight-recorder ring capacity (events)
//
// Independent benchmark runs fan out over a bounded worker pool; -j 0
// (the default) uses the SPBENCH_J environment variable when set, else
// GOMAXPROCS. Virtual-cycle results are byte-identical for every -j.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"superpin/internal/artifact"
	"superpin/internal/bench"
	"superpin/internal/report"
	"superpin/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "spbench:", err)
		os.Exit(1)
	}
}

// run executes one invocation: tables and the elapsed line go to stdout,
// diagnostics and the telemetry announcement to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("spbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "all", "experiment: all|fig3|fig4|fig5|fig6|fig7|sigstats|ablations|diff")
		scale      = fs.Float64("scale", 0.25, "workload scale (1.0 = full size)")
		msec       = fs.Float64("msec", 0, "timeslice interval in virtual ms (0 = scale-proportional default)")
		maxSlices  = fs.Int("spmp", 8, "maximum running slices for suite runs")
		benchmarks = fs.String("benchmarks", "", "comma-separated benchmark subset (default: all 26)")
		csvDir     = fs.String("csv", "", "directory to also write <experiment>.csv files into")
		jobs       = fs.Int("j", 0, "host worker-pool size (0 = $SPBENCH_J, else GOMAXPROCS; 1 = serial)")
		traceDir   = fs.String("trace-dir", "", "directory to write per-benchmark Chrome trace JSON files into")
		cpuProf    = fs.String("cpuprofile", "", "write a host CPU profile (runtime/pprof) of the harness to this file")
		memProf    = fs.String("memprofile", "", "write a host heap profile of the harness to this file")
		cacheDir   = fs.String("cachedir", os.Getenv("SUPERPIN_CACHE"), "persistent artifact cache directory shared by every run (created if missing; default $SUPERPIN_CACHE; virtual results are identical warm or cold)")
		serveAddr  = fs.String("serve", os.Getenv("SUPERPIN_SERVE"), "serve live telemetry over HTTP on this address while the harness runs (/metrics, /metrics.json, /status, /trace, /healthz, /debug/pprof/; default $SUPERPIN_SERVE; empty = off)")
		flightCap  = fs.Int("flightcap", telemetry.DefaultFlightCap, "flight-recorder ring capacity in events for -serve/-lastgasp")
		lastGasp   = fs.String("lastgasp", os.Getenv("SUPERPIN_LASTGASP"), "write a Perfetto trace snapshot of the flight recorder to this file on SIGTERM/SIGINT or panic (default $SUPERPIN_LASTGASP; empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *jobs < 0 {
		return fmt.Errorf("-j %d: want 0 (automatic) or a positive worker count", *jobs)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"-scale", *scale}, {"-msec", *msec}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("%s %v: want a finite, non-negative number", f.name, f.v)
		}
	}

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
		defer func() {
			if err := writeMemProfile(*memProf); err != nil {
				fmt.Fprintln(stderr, "spbench: memprofile:", err)
			}
		}()
	}

	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	cfg.MaxSlices = *maxSlices
	cfg.Workers = *jobs
	cfg.TraceDir = *traceDir
	if *msec > 0 {
		cfg.TimesliceMSec = *msec
	} else {
		// Keep the slice-count-per-run ratio roughly constant across
		// scales (the paper uses 2 s slices on minutes-long runs).
		cfg.TimesliceMSec = 500 * *scale / 0.25
	}
	if *benchmarks != "" {
		cfg.Benchmarks = strings.Split(*benchmarks, ",")
	}
	if *cacheDir != "" {
		store, err := artifact.NewDiskStore(*cacheDir)
		if err != nil {
			return err
		}
		cfg.Artifacts = store
	}

	// Live telemetry plane (-serve / -lastgasp): one registry and one
	// flight-recorder ring shared by every run the harness performs, so
	// /status shows the whole invocation's progress. Inert when both
	// flags are off — the harness then runs registry- and tracer-free.
	plane, err := telemetry.StartPlane(telemetry.PlaneOptions{
		ServeAddr: *serveAddr,
		LastGasp:  *lastGasp,
		FlightCap: *flightCap,
		Log:       stderr,
	})
	if err != nil {
		return err
	}
	defer plane.Close()
	defer plane.Recorder.DumpOnPanic(plane.LastGasp)
	cfg.Metrics = plane.Metrics
	cfg.LiveTrace = plane.Tracer

	emit := func(name string, t *report.Table) error {
		fmt.Fprintln(stdout, t)
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(*csvDir, name+".csv"), []byte(t.CSV()), 0o644)
	}

	start := time.Now()
	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if want("fig3") || want("fig4") {
		t3, rs, err := bench.Fig3(cfg)
		if err != nil {
			return err
		}
		if want("fig3") {
			if err := emit("fig3", t3); err != nil {
				return err
			}
			ran = true
		}
		if want("fig4") {
			t4, _, err := bench.Fig4(cfg, rs)
			if err != nil {
				return err
			}
			if err := emit("fig4", t4); err != nil {
				return err
			}
			ran = true
		}
	}
	if want("fig5") {
		t5, _, err := bench.Fig5(cfg)
		if err != nil {
			return err
		}
		if err := emit("fig5", t5); err != nil {
			return err
		}
		ran = true
	}
	if want("fig6") {
		t6, _, err := bench.Fig6(cfg, nil)
		if err != nil {
			return err
		}
		if err := emit("fig6", t6); err != nil {
			return err
		}
		ran = true
	}
	if want("fig7") {
		t7, _, err := bench.Fig7(cfg, nil)
		if err != nil {
			return err
		}
		if err := emit("fig7", t7); err != nil {
			return err
		}
		ran = true
	}
	if want("sigstats") {
		ts, _, err := bench.SigStats(cfg)
		if err != nil {
			return err
		}
		if err := emit("sigstats", ts); err != nil {
			return err
		}
		ran = true
	}
	if want("ablations") {
		tq, _, err := bench.AblationQuickCheck(cfg)
		if err != nil {
			return err
		}
		if err := emit("ablation_quickcheck", tq); err != nil {
			return err
		}
		tr, _, err := bench.AblationSysRecs(cfg)
		if err != nil {
			return err
		}
		if err := emit("ablation_sysrecs", tr); err != nil {
			return err
		}
		tc, _, err := bench.AblationSharedCache(cfg)
		if err != nil {
			return err
		}
		if err := emit("ablation_sharedcache", tc); err != nil {
			return err
		}
		tt, _, err := bench.AblationThrottle(cfg)
		if err != nil {
			return err
		}
		if err := emit("ablation_throttle", tt); err != nil {
			return err
		}
		ran = true
	}
	// The differential is a check, not a figure, so "all" leaves it out.
	if *exp == "diff" {
		reports, err := bench.RunDiff(cfg)
		if err != nil {
			return err
		}
		if err := emit("diff", bench.DiffTable(reports)); err != nil {
			return err
		}
		fmt.Fprintln(stdout, bench.DiffArms())
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	fmt.Fprintf(stdout, "(scale %.2f, timeslice %.0f ms, elapsed %s)\n", cfg.Scale, cfg.TimesliceMSec, time.Since(start).Round(time.Millisecond))
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
