package core

import (
	"superpin/internal/kernel"
	"superpin/internal/obs"
)

// Live telemetry names the engine keeps current during a run. The gauge
// names are mirrored by internal/telemetry's /status endpoint (which
// must not be imported from here — core stays HTTP-free); the histogram
// records each slice's fork-to-exit host wall time.
const (
	telLiveSlicesSpawned = "core.live.slices_spawned"
	telLiveSlicesRunning = "core.live.slices_running"
	telLiveSlicesMerged  = "core.live.slices_merged"
	telSliceWallNS       = "core.slice_wall_ns"
)

// emit records an instant event for the SuperPin run at the current
// virtual time. No-op unless a tracer is attached.
func (e *Engine) emit(kind obs.Kind, pid kernel.PID, arg, arg2 uint64, name string) {
	if e.opts.Trace == nil {
		return
	}
	e.opts.Trace.Emit(obs.Event{
		Kind: kind, Time: uint64(e.k.Now), PID: int32(pid), CPU: -1,
		Arg: arg, Arg2: arg2, Name: name,
	})
}

// publishMetrics publishes the run's statistics into the registry: the
// core orchestration counters under "core.", the slices' engine and
// code-cache statistics summed under "pin.", and the kernel aggregates
// under "kernel.". The underlying stats keep their existing semantics;
// this is a uniform export path, not a new computation.
func (e *Engine) publishMetrics(res *Result) {
	m := e.opts.Metrics
	if m == nil {
		return
	}
	st := res.Stats
	m.Add("core.forks", uint64(st.Forks))
	m.Add("core.syscall_forks", uint64(st.SyscallForks))
	m.Add("core.timeout_forks", uint64(st.TimeoutForks))
	m.Add("core.stalls", uint64(st.Stalls))
	m.Add("core.sys_records", st.SysRecords)
	m.Add("core.quick_checks", st.QuickChecks)
	m.Add("core.full_checks", st.FullChecks)
	m.Add("core.stack_checks", st.StackChecks)
	m.Add("core.false_quick_matches", st.FalseQuickMatches)
	m.Add("core.reg_pick_defaults", uint64(st.RegPickDefaults))
	m.Add("core.mem_probes", uint64(st.MemProbes))
	m.Add("core.divergences", uint64(st.Divergences))
	m.Add("core.master_ins", res.MasterIns)
	m.Add("core.slice_ins", res.SliceIns)
	m.Set("core.master_end_cycles", float64(res.MasterEnd))
	m.Set("core.master_sleep_cycles", float64(res.MasterSleep))
	m.Set("core.total_cycles", float64(res.TotalTime))
	for _, sl := range e.slices {
		sl.eng.PublishMetrics(m, "pin")
	}
	if res.Profile != nil {
		m.Set("prof.interval", float64(res.Profile.Interval))
		m.Add("prof.samples", uint64(len(res.Profile.Samples)))
		m.Set("prof.max_stack_depth", float64(e.profDepth))
	}
	// Published as an idempotent gauge (like the artifact counters): a
	// ring tracer outlives individual runs when the CLI serves telemetry,
	// and Dropped is its running total.
	if tr := e.opts.Trace; tr != nil {
		m.Set("obs.tracer.dropped", float64(tr.Dropped()))
	}
	e.k.PublishMetrics(m)
	e.opts.Artifacts.PublishMetrics(m)
}

// PublishPinMetrics publishes a serial-Pin baseline result into the
// registry under the "pin." prefix. No-op when m is nil.
func PublishPinMetrics(m *obs.Metrics, res *PinResult) {
	if m == nil || res == nil {
		return
	}
	m.Add("pin.exec_ins", res.Engine.ExecIns)
	m.Add("pin.analysis_calls", res.Engine.AnalysisCalls)
	m.Add("pin.if_calls", res.Engine.IfCalls)
	m.Add("pin.then_calls", res.Engine.ThenCalls)
	m.Add("pin.dispatches", res.Engine.Dispatches)
	m.Add("pin.superblock.ins", res.Engine.SuperblockIns)
	m.Add("pin.trace_builds", res.Engine.TraceBuilds)
	m.Add("pin.cache.lookups", res.Cache.Lookups)
	m.Add("pin.cache.misses", res.Cache.Misses)
	m.Add("pin.cache.compiles", res.Cache.Compiles)
	m.Add("pin.cache.compiled_ins", res.Cache.CompiledIns)
	m.Add("pin.cache.flushes", res.Cache.Flushes)
	m.Add("pin.link.hits", res.Cache.LinkHits)
	m.Add("pin.link.misses", res.Cache.LinkMisses)
	m.Add("pin.link.invalidations", res.Cache.LinkInvalidations)
	m.Set("pin.cycles", float64(res.Time))
	if res.Profile != nil {
		m.Set("prof.interval", float64(res.Profile.Interval))
		m.Add("prof.samples", uint64(len(res.Profile.Samples)))
	}
}
