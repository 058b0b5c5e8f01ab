package main

// metricDef names one metric the benchmark emits. The tables here are
// the single list BENCHMARK.json, the README and the output are checked
// against (see TestNamesMatchBenchmarkJSON).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may get worse before it counts as a regression.
	Bound float64
	// Exact marks simulated quantities and counts: they repeat bit for
	// bit and -compare requires equality. A workload run on several host
	// workers reports none of its metrics as exact (see tally.sameAsFirst).
	Exact bool
	// Global marks layer-pass metrics measured on fixed inputs of their
	// own; the others are measured on the workload being run.
	Global bool
}

// Host-time metrics are in calibrated time (see calib.go).
var endToEnd = []metricDef{
	{Name: "guest_mips", Unit: "Mins/s", Better: "higher", Bound: 0.20},
	{Name: "round_ms_p75", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

func count(name string) metricDef {
	return metricDef{Name: name, Unit: "count", Better: "lower", Exact: true}
}

var perLayer = []metricDef{
	// Simulated slowdown (paper Fig. 3/5 axis) of the workload's mode.
	{Name: "v_slowdown_pct", Unit: "%", Better: "lower", Exact: true},

	// host: raw (uncalibrated) figures and the calibration reading.
	{Name: "host.guest_mips_raw", Unit: "Mins/s", Better: "higher"},
	{Name: "host.cal_ns_per_step", Unit: "ns", Better: "lower"},

	// cpu
	{Name: "cpu.step_mips", Unit: "Mins/s", Better: "higher", Global: true},
	{Name: "cpu.execblock_mips", Unit: "Mins/s", Better: "higher", Global: true},
	{Name: "cpu.execblockcached_mips", Unit: "Mins/s", Better: "higher", Global: true},
	{Name: "cpu.savemasked_ns_w9", Unit: "ns", Better: "lower", Global: true},
	{Name: "cpu.savemasked_ns_w32", Unit: "ns", Better: "lower", Global: true},

	// mem
	{Name: "mem.loadword_ns", Unit: "ns", Better: "lower", Global: true},
	{Name: "mem.storeword_ns", Unit: "ns", Better: "lower", Global: true},
	{Name: "mem.fetchinst_ns", Unit: "ns", Better: "lower", Global: true},
	{Name: "mem.fork_us", Unit: "us", Better: "lower", Global: true},
	{Name: "mem.cow_store_ns", Unit: "ns", Better: "lower", Global: true},
	{Name: "mem.release_us", Unit: "us", Better: "lower", Global: true},
	{Name: "mem.predecode_build_us", Unit: "us", Better: "lower", Global: true},
	{Name: "mem.alloc_mb_per_round", Unit: "MB", Better: "lower"},
	{Name: "mem.heap_peak_mb", Unit: "MB", Better: "lower"},

	// jit
	{Name: "jit.buildtrace_ns", Unit: "ns", Better: "lower", Global: true},
	{Name: "jit.compile_ns", Unit: "ns", Better: "lower", Global: true},
	{Name: "jit.compile_ns_per_ins", Unit: "ns", Better: "lower", Global: true},
	{Name: "jit.codecache_lookup_ns", Unit: "ns", Better: "lower", Global: true},
	{Name: "jit.link_ns", Unit: "ns", Better: "lower", Global: true},
	{Name: "jit.tracecache_lookup_ns", Unit: "ns", Better: "lower", Global: true},
	count("jit.lookups"),
	count("jit.misses"),
	count("jit.compiles"),
	count("jit.compiled_ins"),
	count("jit.flushes"),
	count("jit.link_hits"),
	count("jit.link_misses"),
	{Name: "jit.link_hit_ratio", Unit: "ratio", Better: "higher", Exact: true},

	// sa
	{Name: "sa.analyze_ms", Unit: "ms", Better: "lower", Global: true},
	{Name: "sa.analyze_intra_ms", Unit: "ms", Better: "lower", Global: true},
	{Name: "sa.encode_ms", Unit: "ms", Better: "lower", Global: true},
	{Name: "sa.decode_ms", Unit: "ms", Better: "lower", Global: true},
	{Name: "sa.blocks", Unit: "count", Better: "lower", Exact: true, Global: true},
	{Name: "sa.load_share_pct", Unit: "%", Better: "lower", Global: true},

	// pin
	count("pin.dispatches"),
	count("pin.analysis_calls"),
	count("pin.if_calls"),
	count("pin.then_calls"),
	count("pin.superblock_ins"),
	count("pin.hot_ins"),
	{Name: "pin.hot_ins_ratio", Unit: "ratio", Better: "higher", Exact: true},
	count("pin.hot_promotions"),
	count("pin.hot_link_hits"),
	count("pin.hoisted_saves"),
	count("pin.pred_save_regs"),
	count("pin.folded_sites"),
	count("pin.folded_preds"),
	{Name: "pin.null_mips", Unit: "Mins/s", Better: "higher", Global: true},
	{Name: "pin.ns_per_analysis_call", Unit: "ns", Better: "lower", Global: true},
	{Name: "pin.ns_per_ifcall", Unit: "ns", Better: "lower", Global: true},
	{Name: "pin.gain_fastpath", Unit: "ratio", Better: "higher", Global: true},
	{Name: "pin.gain_hottier", Unit: "ratio", Better: "higher", Global: true},
	{Name: "pin.gain_sa", Unit: "ratio", Better: "higher", Global: true},
	{Name: "pin.gain_sa_ip", Unit: "ratio", Better: "higher", Global: true},
	{Name: "pin.gain_fold", Unit: "ratio", Better: "higher", Global: true},

	// kernel
	{Name: "kernel.boot_us", Unit: "us", Better: "lower", Global: true},
	{Name: "kernel.pool_speedup", Unit: "ratio", Better: "higher", Global: true},
	{Name: "kernel.pool_speedup_icount1", Unit: "ratio", Better: "higher", Global: true},
	count("kernel.syscalls"),

	// core
	count("core.slices"),
	count("core.syscall_forks"),
	count("core.timeout_forks"),
	count("core.stalls"),
	count("core.sys_records"),
	count("core.quick_checks"),
	count("core.full_checks"),
	count("core.stack_checks"),
	count("core.false_quick_matches"),
	count("core.divergences"),
	// Runs of the traced pass whose virtual time or exit code differed
	// from the first repetition's (several host workers only; tally.Drift).
	{Name: "core.vtime_drift_runs", Unit: "count", Better: "lower"},
	{Name: "core.v_forkothers_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "core.v_sleep_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "core.v_pipeline_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "core.v_speedup_over_pin", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "core.host_us_per_slice", Unit: "us", Better: "lower", Global: true},

	// artifact
	{Name: "artifact.keyof_us", Unit: "us", Better: "lower", Global: true},
	{Name: "artifact.gain_warm", Unit: "ratio", Better: "higher", Global: true},
	{Name: "artifact.gain_disk", Unit: "ratio", Better: "higher", Global: true},
	{Name: "artifact.sa_computes", Unit: "count", Better: "lower", Exact: true, Global: true},
	{Name: "artifact.predecode_hits", Unit: "count", Better: "higher", Exact: true, Global: true},

	// workload
	{Name: "workload.build_ms", Unit: "ms", Better: "lower"},

	// trace
	{Name: "share.build_pct", Unit: "%", Better: "lower"},
	{Name: "share.load_pct", Unit: "%", Better: "lower"},
	{Name: "share.run_pct", Unit: "%", Better: "higher"},
	{Name: "share.verify_pct", Unit: "%", Better: "lower"},
	{Name: "trace.span_coverage_pct", Unit: "%", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

func metricByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// values maps metric name to measured value.
type values map[string]float64
