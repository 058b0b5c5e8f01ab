package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"superpin/internal/artifact"
	"superpin/internal/mem"
	"superpin/internal/obs"
	"superpin/internal/sa"
)

const tracedRounds = 5

// span is one timed call the benchmark made into a layer. Spans of one
// run share Run; Parent is the ID of the enclosing span (0 for a
// round, the root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Run      int    `json:"run"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in memory; flush writes them out at exit.
type recorder struct {
	t0    time.Time
	spans []span
	runs  int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(workload, name string, parent, run int) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Workload: workload, Name: name,
		StartNS: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) end(id int) { r.spans[id-1].EndNS = int64(time.Since(r.t0)) }

// in records f as a child span.
func (r *recorder) in(workload, name string, parent, run int, f func()) {
	id := r.begin(workload, name, parent, run)
	f()
	r.end(id)
}

func (r *recorder) flush(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedRound is one round with a span around every call into a layer:
// per program, the generator (build), the content hash (keyof), and the
// two load-time computations the run repeats internally (predecode,
// analyze) as direct calls on the same image, then the end-to-end call
// (run) and its verification (verify). It returns the round's root span
// ID.
func (p *prepared) tracedRound(rec *recorder, t *tally) int {
	name := p.w.Name
	root := rec.begin(name, "round", 0, 0)
	for i, prog := range p.progs {
		rec.runs++
		run := rec.runs
		rec.in(name, "build", root, run, func() {
			if _, err := prog.spec.Build(); err != nil {
				t.fail(err)
			}
		})
		rec.in(name, "keyof", root, run, func() { artifact.KeyOf(prog.img) })
		rec.in(name, "predecode", root, run, func() {
			spans := make([]mem.Span, len(prog.img.Segments))
			for j, seg := range prog.img.Segments {
				spans[j] = mem.Span{Addr: seg.Addr, Data: seg.Data}
			}
			mem.BuildPredecodeSet(spans)
		})
		rec.in(name, "analyze", root, run, func() { sa.Analyze(prog.img) })
		t.Attempted++
		var out runOut
		var err error
		rec.in(name, "run", root, run, func() { out, err = invoke(prog, p.rc) })
		rec.in(name, "verify", root, run, func() {
			if err == nil {
				err = verify(prog, out)
			}
			if err == nil {
				err = t.sameAsFirst(prog, p.rc, out, p.first[i])
			}
		})
		if err != nil {
			t.fail(err)
		}
	}
	rec.end(root)
	return root
}

// tracedPass measures the per-layer numbers of one workload: paired
// untraced and traced rounds (the difference is the tracing overhead),
// memory statistics read between rounds, and one count run per program
// with a metrics registry attached.
func tracedPass(w workloadDef, o options, clk *hostClock, rec *recorder) (values, tally, error) {
	var t tally
	p, _, err := setup(w, o, clk, &t)
	if err != nil {
		return nil, t, err
	}
	v := values{"v_slowdown_pct": p.vSlowdownPct()}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// tracedSample is what one traced round recorded: its root span's
	// wall, its child spans' wall by name, and its timed sample.
	type tracedSample struct {
		wall   time.Duration
		byName map[string]time.Duration
		s      sample
	}
	var untraced []sample
	var traced []tracedSample
	var allocBytes, heapPeak uint64
	rounds := o.repeats(tracedRounds)
	for i := 0; i < rounds; i++ {
		before := ms.TotalAlloc
		untraced = append(untraced, p.round(clk, &t, nil))
		runtime.ReadMemStats(&ms)
		allocBytes += ms.TotalAlloc - before
		heapPeak = max(heapPeak, ms.HeapAlloc)

		var root int
		s := clk.measure(func() { root = p.tracedRound(rec, &t) })
		runtime.ReadMemStats(&ms)
		heapPeak = max(heapPeak, ms.HeapAlloc)
		tr := tracedSample{wall: rec.spans[root-1].dur(), byName: map[string]time.Duration{}, s: s}
		for _, sp := range rec.spans[root:] {
			if sp.Parent == root {
				tr.byName[sp.Name] += sp.dur()
			}
		}
		traced = append(traced, tr)
	}
	clk.settleAll(untraced)

	var tracedRunMS, buildMS, coverage []float64
	shares := map[string][]float64{}
	for _, tr := range traced {
		clk.settle(&tr.s)
		// scale turns raw span time into calibrated time.
		scale := float64(tr.s.Cal) / float64(tr.s.Wall)
		pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(tr.wall) }
		var covered time.Duration
		for _, d := range tr.byName {
			covered += d
		}
		by := tr.byName
		shares["share.build_pct"] = append(shares["share.build_pct"], pct(by["build"]))
		shares["share.load_pct"] = append(shares["share.load_pct"], pct(by["predecode"]+by["analyze"]))
		shares["share.run_pct"] = append(shares["share.run_pct"], pct(by["run"]))
		shares["share.verify_pct"] = append(shares["share.verify_pct"], pct(by["verify"]))
		coverage = append(coverage, pct(covered))
		tracedRunMS = append(tracedRunMS, scale*float64(by["run"]+by["verify"])/float64(time.Millisecond))
		buildMS = append(buildMS, scale*float64(by["build"])/float64(time.Millisecond))
	}
	for name, xs := range shares {
		v[name] = median(xs)
	}
	base := median(project(untraced, sample.ms))
	v["trace.span_coverage_pct"] = median(coverage)
	v["trace.overhead_pct"] = 100 * (median(tracedRunMS) - base) / base
	v["workload.build_ms"] = median(buildMS)
	v["mem.alloc_mb_per_round"] = float64(allocBytes) / float64(rounds) / (1 << 20)
	v["mem.heap_peak_mb"] = float64(heapPeak) / (1 << 20)
	v["host.guest_mips_raw"] = float64(p.guestIns) / 1e3 / median(project(untraced, sample.wallMS))
	v["host.cal_ns_per_step"] = median(project(untraced, func(s sample) float64 { return s.Step }))

	p.countRun(v, &t)
	v["core.vtime_drift_runs"] = float64(t.Drift)
	return v, t, nil
}

// countRun runs every program of the workload once more with a metrics
// registry attached and folds the layers' own counters into v. Not
// timed: the registry is exactly what timed runs must not carry.
func (p *prepared) countRun(v values, t *tally) {
	m := obs.NewMetrics()
	rc := p.rc
	rc.Metrics = m
	var syscalls uint64
	var forkOthers, sleep, pipeline, speedup float64
	for i, prog := range p.progs {
		t.Attempted++
		out, err := execRun(prog, rc)
		if err == nil {
			err = t.sameAsFirst(prog, p.rc, out, p.first[i])
		}
		if err != nil {
			t.fail(err)
			continue
		}
		syscalls += prog.ref.Syscalls
		if sp := out.SP; sp != nil {
			_, fo, sl, pl := sp.Breakdown(prog.ref.Time)
			total := float64(sp.TotalTime)
			forkOthers += 100 * float64(fo) / total
			sleep += 100 * float64(sl) / total
			pipeline += 100 * float64(pl) / total
			// Serial Pin on the same image with the same tool: the
			// paper's Fig. 4 quantity, in virtual time.
			pinRC := rc
			pinRC.Mode, pinRC.Workers, pinRC.Metrics = modePin, 1, nil
			t.Attempted++
			pinOut, err := execRun(prog, pinRC)
			if err != nil {
				t.fail(err)
				continue
			}
			speedup += float64(pinOut.VTime) / total
			st := sp.Stats
			v["core.slices"] += float64(st.Forks)
			v["core.syscall_forks"] += float64(st.SyscallForks)
			v["core.timeout_forks"] += float64(st.TimeoutForks)
			v["core.stalls"] += float64(st.Stalls)
			v["core.sys_records"] += float64(st.SysRecords)
			v["core.quick_checks"] += float64(st.QuickChecks)
			v["core.full_checks"] += float64(st.FullChecks)
			v["core.stack_checks"] += float64(st.StackChecks)
			v["core.false_quick_matches"] += float64(st.FalseQuickMatches)
			v["core.divergences"] += float64(st.Divergences)
		}
	}
	n := float64(len(p.progs))
	v["core.v_forkothers_pct"] = forkOthers / n
	v["core.v_sleep_pct"] = sleep / n
	v["core.v_pipeline_pct"] = pipeline / n
	v["core.v_speedup_over_pin"] = speedup / n
	v["kernel.syscalls"] = float64(syscalls)

	// The engines publish under "pin." whether they ran serially
	// (core.PublishPinMetrics) or as slices (summed over slice engines).
	c := func(name string) float64 { return float64(m.Counter(name)) }
	v["jit.lookups"] = c("pin.cache.lookups")
	v["jit.misses"] = c("pin.cache.misses")
	v["jit.compiles"] = c("pin.cache.compiles")
	v["jit.compiled_ins"] = c("pin.cache.compiled_ins")
	v["jit.flushes"] = c("pin.cache.flushes")
	v["jit.link_hits"] = c("pin.link.hits")
	v["jit.link_misses"] = c("pin.link.misses")
	v["jit.link_hit_ratio"] = ratio(c("pin.link.hits"), c("pin.link.hits")+c("pin.link.misses"))
	v["pin.dispatches"] = c("pin.dispatches")
	v["pin.analysis_calls"] = c("pin.analysis_calls")
	v["pin.if_calls"] = c("pin.if_calls")
	v["pin.then_calls"] = c("pin.then_calls")
	v["pin.superblock_ins"] = c("pin.superblock.ins")
	v["pin.hot_ins"] = c("pin.hot.ins")
	v["pin.hot_ins_ratio"] = ratio(c("pin.hot.ins"), c("pin.exec_ins"))
	v["pin.hot_promotions"] = c("pin.hot.promotions")
	v["pin.hot_link_hits"] = c("pin.hot.link_hits")
	v["pin.hoisted_saves"] = c("pin.hot.hoisted_saves")
	v["pin.pred_save_regs"] = c("pin.sa.pred_save_regs")
	v["pin.folded_sites"] = c("pin.sa.ip.folded_sites")
	v["pin.folded_preds"] = c("pin.sa.ip.folded")
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// flushTrace writes the traced pass's spans to <dir>/trace.json.
func flushTrace(rec *recorder, dir string) error {
	if len(rec.spans) == 0 {
		return nil
	}
	path := filepath.Join(dir, "trace.json")
	if err := rec.flush(path); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
