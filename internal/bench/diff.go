package bench

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"

	"superpin/internal/artifact"
	"superpin/internal/asm"
	"superpin/internal/core"
	"superpin/internal/kernel"
	"superpin/internal/obs"
	"superpin/internal/pin"
	"superpin/internal/prof"
	"superpin/internal/report"
	"superpin/internal/tools"
	"superpin/internal/workload"
)

// The differential harness (`spbench -exp diff`) checks the invariant
// every host-side mechanism promises: dispatch fast paths, the artifact
// store, telemetry and the profiler change what the host pays, never a
// virtual result. Each benchmark runs
// every leg (tool x mode) once under the reference setup and once per
// arm; each arm flips one host-side axis, declares the host-only counters
// that axis may move, and checks that its machinery really ran. One
// comparator holds every arm to the reference.

// diffLeg is one tool run the harness repeats under every arm.
type diffLeg struct {
	tool     string // icount1, icount2 or watch
	superpin bool   // SuperPin rather than serial Pin
	prof     bool   // profiler attached in the reference
	shared   bool   // SuperPin shared code cache (Section 8)
}

func (l diffLeg) String() string {
	if l.superpin {
		return "superpin/" + l.tool
	}
	return "pin/" + l.tool
}

// diffLegs is the per-benchmark coverage. Serial Pin runs both counting
// tools and the watchpoint, whose If/Then pair runs at every block head.
// SuperPin merges a profile across slices under icount1 and shares
// translations under icount2.
var diffLegs = []diffLeg{
	{tool: "icount1"},
	{tool: "icount2", prof: true},
	{tool: "watch"},
	{tool: "icount1", superpin: true, prof: true},
	{tool: "icount2", superpin: true, shared: true},
	{tool: "watch", superpin: true},
}

// storeKind is the artifact-store axis of a setup.
type storeKind int

const (
	noStore   storeKind = iota
	warmStore           // compare a second run on the store the first populated
	diskStore           // compare a run on a fresh store hydrated from disk
)

// diffSetup is everything an arm may flip for one run.
type diffSetup struct {
	kernel kernel.Config
	cost   pin.CostModel
	prof   bool // profiled legs keep their profiler
	store  storeKind
}

// diffArm flips one host-side axis off the reference setup.
type diffArm struct {
	name string
	axis string
	// apply flips the axis. It runs once per leg, so per-run state such
	// as a telemetry registry is fresh for every run.
	apply func(*diffSetup)
	// host names the result fields the axis may move, as paths into
	// core.PinResult; "Profile" applies to core.Result too. The
	// comparator zeroes exactly these, in both results, before comparing.
	host []string
	// profiledOnly skips legs without a profiler, where the arm would
	// repeat the reference.
	profiledOnly bool
	// check asserts that the arm's machinery engaged in the reference or
	// stayed inert in the arm (nil: equality only); engaged describes it.
	check   func(*armCheck) error
	engaged string
}

// armCheck is what an arm's check sees for one leg.
type armCheck struct {
	leg      diffLeg
	ref, got *diffRun
}

// diffArms is the arm table, in run order. EXPERIMENTS.md documents it
// row for row.
var diffArms = []diffArm{
	{
		name:  "nofastpath",
		axis:  "dispatch fast paths off (trace linking, superblocks)",
		apply: func(s *diffSetup) { s.cost.NoFastPath = true },
		host: []string{"Engine.SuperblockIns",
			"Cache.LinkHits", "Cache.LinkMisses", "Cache.LinkInvalidations"},
		check:   checkNoFastPath,
		engaged: "reference icount2 links traces and runs superblocks; arm reports no fast-path activity",
	},
	{
		name:    "warm",
		axis:    "second run on a populated in-process artifact store",
		apply:   func(s *diffSetup) { s.store = warmStore },
		check:   checkWarm,
		engaged: "one predecode compute, then store hits",
	},
	{
		name:    "disk-warm",
		axis:    "fresh artifact store hydrated from a cache directory",
		apply:   func(s *diffSetup) { s.store = diskStore },
		check:   checkDiskWarm,
		engaged: "disk hits with zero predecode recomputes",
	},
	{
		name: "telemetry",
		axis: "live metrics registry and ring-buffer tracer attached",
		apply: func(s *diffSetup) {
			s.kernel.Metrics = obs.NewMetrics()
			s.kernel.Trace = obs.NewRingTracer(1 << 22)
		},
		check:   checkTelemetry,
		engaged: "registry counts retired instructions; the ring records events and drops none",
	},
	{
		name:         "unprofiled",
		axis:         "profiler detached",
		apply:        func(s *diffSetup) { s.prof = false },
		host:         []string{"Profile"},
		profiledOnly: true,
		check: func(c *armCheck) error {
			if c.got.profile() != nil {
				return fmt.Errorf("unprofiled run produced a profile")
			}
			return nil
		},
		engaged: "arm result carries no profile",
	},
}

func checkNoFastPath(c *armCheck) error {
	if c.leg.superpin {
		return nil
	}
	if err := inert(c.got.pin, "Engine.SuperblockIns",
		"Cache.LinkHits", "Cache.LinkMisses", "Cache.LinkInvalidations"); err != nil {
		return err
	}
	if ref := c.ref.pin; c.leg.tool == "icount2" && (ref.Cache.LinkHits == 0 || ref.Engine.SuperblockIns == 0) {
		return fmt.Errorf("reference fast paths idle: %d link hits, %d superblock instructions",
			ref.Cache.LinkHits, ref.Engine.SuperblockIns)
	}
	return nil
}

func checkWarm(c *armCheck) error {
	if c.got.store == nil {
		return fmt.Errorf("no artifact store attached")
	}
	if st := c.got.store.Stats(); st.PredecodeComputes != 1 || st.PredecodeHits == 0 {
		return fmt.Errorf("store did not serve the second run: predecode %d computes/%d hits",
			st.PredecodeComputes, st.PredecodeHits)
	}
	return nil
}

func checkDiskWarm(c *armCheck) error {
	if c.got.store == nil {
		return fmt.Errorf("no artifact store attached")
	}
	if st := c.got.store.Stats(); st.DiskHits == 0 || st.PredecodeComputes != 0 {
		return fmt.Errorf("store did not hydrate from disk: %d disk hits, %d predecode computes",
			st.DiskHits, st.PredecodeComputes)
	}
	return nil
}

func checkTelemetry(c *armCheck) error {
	if c.got.metrics.Counter("kernel.live.retired_ins") == 0 {
		return fmt.Errorf("registry counted no retired instructions")
	}
	if n, dropped := c.got.ring.Len(), c.got.ring.Dropped(); n == 0 || dropped != 0 {
		return fmt.Errorf("ring tracer holds %d events, dropped %d", n, dropped)
	}
	return nil
}

// inert errors unless every named counter of a serial result is zero.
func inert(r *core.PinResult, paths ...string) error {
	v := reflect.ValueOf(r).Elem()
	for _, p := range paths {
		if n := fieldByPath(v, p).Uint(); n != 0 {
			return fmt.Errorf("%s = %d in the arm, want 0", p, n)
		}
	}
	return nil
}

// diffRun is one leg's outcome under one setup.
type diffRun struct {
	pin    *core.PinResult // serial legs
	sp     *core.Result    // SuperPin legs
	events []obs.Event     // SuperPin legs
	out    uint64          // tool output: instructions counted or watchpoint hits

	store   *artifact.Store
	metrics *obs.Metrics
	ring    *obs.Tracer
}

func (r *diffRun) profile() *prof.Profile {
	if r.pin != nil {
		return r.pin.Profile
	}
	return r.sp.Profile
}

// compareRuns is the harness's one comparator. It zeroes the arm's
// declared host fields in copies of both results, then requires the
// results, the SuperPin event streams and the tool outputs to be equal,
// naming the first differing fields.
func compareRuns(ref, got *diffRun, host []string) error {
	var d differ
	if ref.pin != nil {
		d.diff("", zeroed(*ref.pin, host), zeroed(*got.pin, host))
	} else {
		d.diff("", zeroed(*ref.sp, host), zeroed(*got.sp, host))
		d.diff("events", ref.events, got.events)
	}
	d.diff("tool output", ref.out, got.out)
	if len(d.diffs) == 0 {
		return nil
	}
	return fmt.Errorf("differs from the reference at %s", strings.Join(d.diffs, "; "))
}

// zeroed returns v with every field named by paths (dotted, e.g.
// "Engine.SuperblockIns") set to its zero value; paths v lacks are skipped.
func zeroed[T any](v T, paths []string) T {
	rv := reflect.ValueOf(&v).Elem()
	for _, p := range paths {
		if f := fieldByPath(rv, p); f.IsValid() {
			f.SetZero()
		}
	}
	return v
}

// fieldByPath resolves a dotted field path in a struct value (the zero
// Value when a field is missing).
func fieldByPath(v reflect.Value, path string) reflect.Value {
	for _, name := range strings.Split(path, ".") {
		if v.Kind() != reflect.Struct {
			return reflect.Value{}
		}
		if v = v.FieldByName(name); !v.IsValid() {
			return v
		}
	}
	return v
}

// maxDiffs bounds how many differing fields one mismatch reports.
const maxDiffs = 6

// differ collects the paths of differing leaves, in field order.
type differ struct{ diffs []string }

// diff records where a and b differ. Equal values, the common case, cost
// one DeepEqual; only a mismatch is walked field by field.
func (d *differ) diff(path string, a, b any) {
	if !reflect.DeepEqual(a, b) {
		d.walk(path, reflect.ValueOf(a), reflect.ValueOf(b))
	}
}

func (d *differ) walk(path string, a, b reflect.Value) {
	if len(d.diffs) >= maxDiffs {
		return
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				d.add(path, a, b)
			}
			return
		}
		if a.Elem().Type() != b.Elem().Type() {
			d.add(path, a.Elem(), b.Elem())
			return
		}
		d.walk(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			d.walk(name, a.Field(i), b.Field(i))
		}
	case reflect.Slice, reflect.Array:
		n := min(a.Len(), b.Len())
		for i := 0; i < n; i++ {
			d.walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
		if a.Len() != b.Len() && len(d.diffs) < maxDiffs {
			d.diffs = append(d.diffs, fmt.Sprintf("len(%s) (ref %d, arm %d)", path, a.Len(), b.Len()))
		}
	default:
		if !a.Equal(b) {
			d.add(path, a, b)
		}
	}
}

func (d *differ) add(path string, a, b reflect.Value) {
	d.diffs = append(d.diffs, fmt.Sprintf("%s (ref %v, arm %v)", path, a, b))
}

// DiffReport is one benchmark's differential outcome: every arm matched
// the reference on every leg. The reference counters show that the
// machinery the arms switch off was really running.
type DiffReport struct {
	Name string
	// Ins is the benchmark's guest instruction count.
	Ins uint64
	// PinCycles and SPCycles are the serial Pin and SuperPin icount1
	// runtimes, identical in every arm.
	PinCycles kernel.Cycles
	SPCycles  kernel.Cycles
	// Runs counts the arm runs compared against a reference.
	Runs int
	// LinkHits and SuperblockIns are the serial icount2 reference's
	// fast-path counters.
	LinkHits      uint64
	SuperblockIns uint64
	// StoreHits sums the warm arm's predecode store hits, and
	// DiskHits the disk-warm arm's loads from the cache directory, over
	// every leg.
	StoreHits uint64
	DiskHits  uint64
	// Samples, MaxStack and Slices describe the merged SuperPin icount1
	// profile (identical to the native one): sample count, deepest shadow
	// stack, and the slices it was merged from.
	Samples  int
	MaxStack int
	Slices   int
	// Events is the SuperPin icount1 trace length.
	Events int
}

// RunDiff runs every configured benchmark's legs under the reference and
// every arm of the table, and verifies that no arm changed a virtual
// result. It then asserts that some merged profile spans several slices
// and a nonempty call stack.
func RunDiff(cfg Config) ([]*DiffReport, error) {
	reports, err := runDiff(cfg, diffArms)
	if err != nil {
		return nil, err
	}
	for _, r := range reports {
		if r.Slices >= 2 && r.MaxStack > 0 {
			return reports, nil
		}
	}
	return nil, fmt.Errorf("diff: no merged profile spans two slices and a call")
}

// runDiff is RunDiff over an arbitrary arm table, without the suite-wide
// checks.
func runDiff(cfg Config, arms []diffArm) ([]*DiffReport, error) {
	cfg.normalize()
	specs, err := cfg.specs()
	if err != nil {
		return nil, err
	}
	benches, err := runIndexed(cfg.Workers, len(specs), func(i int) (*diffBench, error) {
		return newDiffBench(cfg, specs[i])
	})
	if err != nil {
		return nil, err
	}
	// Legs are independent runs too: fanning out over (benchmark, leg)
	// pairs keeps every worker busy even when few benchmarks are listed.
	n := len(diffLegs)
	if _, err := runIndexed(cfg.Workers, len(benches)*n, func(i int) (struct{}, error) {
		return struct{}{}, benches[i/n].runLegArms(diffLegs[i%n], arms)
	}); err != nil {
		return nil, err
	}
	reports := make([]*DiffReport, len(benches))
	for i, b := range benches {
		for _, h := range b.hits {
			if h != b.hits[0] {
				return nil, fmt.Errorf("diff %s: watchpoint hits disagree across legs: %v", b.spec.Name, b.hits)
			}
		}
		reports[i] = b.rep
	}
	return reports, nil
}

// diffBench is one benchmark's fixed inputs and the report its legs fill.
type diffBench struct {
	cfg      Config
	spec     workload.Spec
	prog     *asm.Program
	base     diffSetup
	native   *core.NativeResult // profiled
	interval uint64
	symtab   *prof.Symtab
	folded   string // native profile's folded stacks

	// mu guards rep and hits, which concurrent legs fill. Every report
	// field is written by one leg or summed, so the result does not
	// depend on leg order.
	mu   sync.Mutex
	rep  *DiffReport
	hits []uint64 // reference watchpoint hits, one per watch leg
}

func newDiffBench(cfg Config, spec workload.Spec) (*diffBench, error) {
	spec = spec.Scaled(cfg.Scale)
	prog, err := spec.Build()
	if err != nil {
		return nil, err
	}
	// The reference runs without telemetry; the telemetry arm brings its
	// own registry and tracer.
	base := diffSetup{kernel: cfg.Kernel, cost: cfg.PinCost, prof: true}
	base.kernel.Metrics, base.kernel.Trace = nil, nil

	plain, err := core.RunNative(base.kernel, prog, spec.NativeMemCost)
	if err != nil {
		return nil, fmt.Errorf("diff %s: native: %w", spec.Name, err)
	}
	// ~500 samples per run whatever its length; +1 keeps the interval
	// nonzero.
	interval := plain.Ins/499 + 1
	native, err := core.RunNativeProf(base.kernel, prog, spec.NativeMemCost, interval)
	if err != nil {
		return nil, fmt.Errorf("diff %s: native profiled: %w", spec.Name, err)
	}
	if native.Time != plain.Time || native.Ins != plain.Ins || len(native.Profile.Samples) == 0 {
		return nil, fmt.Errorf("diff %s: profiled native run: %d cycles/%d ins/%d samples vs %d/%d unprofiled",
			spec.Name, native.Time, native.Ins, len(native.Profile.Samples), plain.Time, plain.Ins)
	}
	symtab := prof.NewSymtab(prog.Symbols)
	return &diffBench{
		cfg: cfg, spec: spec, prog: prog, base: base, native: native, interval: interval,
		symtab: symtab, folded: native.Profile.Folded(symtab),
		rep: &DiffReport{Name: spec.Name, Ins: native.Ins},
	}, nil
}

// runLegArms runs one leg under the reference and every arm, holding each
// arm to the reference, and notes the leg's counters in the report.
func (h *diffBench) runLegArms(leg diffLeg, arms []diffArm) error {
	fail := func(arm string, err error) error {
		return fmt.Errorf("diff %s %s [%s]: %w", h.spec.Name, leg, arm, err)
	}
	ref, err := h.runLeg(h.base, leg, nil)
	if err != nil {
		return fail("reference", err)
	}
	watch := strings.HasPrefix(leg.tool, "watch")
	if !watch && ref.out != h.native.Ins {
		return fail("reference", fmt.Errorf("counted %d instructions, native executed %d", ref.out, h.native.Ins))
	}
	if leg.prof {
		p := ref.profile()
		if d := h.native.Profile.Diff(p); d != "" {
			return fail("reference", fmt.Errorf("profile differs from native: %s", d))
		}
		if p.Folded(h.symtab) != h.folded {
			return fail("reference", fmt.Errorf("folded stacks differ from native"))
		}
	}
	runs := make(map[string]*diffRun, len(arms))
	for _, arm := range arms {
		if arm.profiledOnly && !leg.prof {
			continue
		}
		got, err := h.runArm(arm, leg)
		if err == nil {
			err = compareRuns(ref, got, arm.host)
		}
		if err == nil && arm.check != nil {
			err = arm.check(&armCheck{leg: leg, ref: ref, got: got})
		}
		if err != nil {
			return fail(arm.name, err)
		}
		runs[arm.name] = got
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.rep.Runs += len(runs)
	h.rep.note(leg, ref, runs)
	if watch {
		h.hits = append(h.hits, ref.out)
	}
	return nil
}

// note records a leg's reference counters and the store arms' hits.
func (r *DiffReport) note(leg diffLeg, ref *diffRun, runs map[string]*diffRun) {
	if run := runs["warm"]; run != nil && run.store != nil {
		r.StoreHits += run.store.Stats().PredecodeHits
	}
	if run := runs["disk-warm"]; run != nil && run.store != nil {
		r.DiskHits += run.store.Stats().DiskHits
	}
	if leg.superpin {
		if leg.tool == "icount1" {
			r.SPCycles, r.Events, r.Slices = ref.sp.TotalTime, len(ref.events), len(ref.sp.Slices)
			r.Samples = len(ref.sp.Profile.Samples)
			for _, s := range ref.sp.Profile.Samples {
				r.MaxStack = max(r.MaxStack, len(s.Stack))
			}
		}
		return
	}
	switch leg.tool {
	case "icount1":
		r.PinCycles = ref.pin.Time
	case "icount2":
		r.LinkHits, r.SuperblockIns = ref.pin.Cache.LinkHits, ref.pin.Engine.SuperblockIns
	}
}

// runArm runs one leg under an arm's setup, first priming the artifact
// store when the arm compares a warm run.
func (h *diffBench) runArm(arm diffArm, leg diffLeg) (*diffRun, error) {
	s := h.base
	arm.apply(&s)
	switch s.store {
	case warmStore:
		store := artifact.NewStore()
		if _, err := h.runLeg(s, leg, store); err != nil {
			return nil, err
		}
		return h.runLeg(s, leg, store)
	case diskStore:
		dir, err := os.MkdirTemp("", "spbench-diff-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		prime, err := artifact.NewDiskStore(dir)
		if err != nil {
			return nil, err
		}
		if _, err := h.runLeg(s, leg, prime); err != nil {
			return nil, err
		}
		hydrated, err := artifact.NewDiskStore(dir)
		if err != nil {
			return nil, err
		}
		return h.runLeg(s, leg, hydrated)
	}
	return h.runLeg(s, leg, nil)
}

// runLeg executes one leg under setup s. A SuperPin run traces into the
// setup's tracer when it has one, else into a private one, and its
// stream must pass VerifyTrace.
func (h *diffBench) runLeg(s diffSetup, leg diffLeg, store *artifact.Store) (*diffRun, error) {
	factory, out := diffTool(leg.tool)
	var interval uint64
	if leg.prof && s.prof {
		interval = h.interval
	}
	r := &diffRun{store: store, metrics: s.kernel.Metrics, ring: s.kernel.Trace}
	if !leg.superpin {
		cost := s.cost
		cost.MemSurcharge = h.spec.PinMemCost
		res, err := core.RunPinCached(s.kernel, h.prog, factory, cost, interval, store)
		if err != nil {
			return nil, err
		}
		r.pin, r.out = res, out()
		return r, nil
	}
	opts := core.DefaultOptions()
	opts.SliceMSec = h.cfg.TimesliceMSec
	opts.MaxSlices = h.cfg.MaxSlices
	opts.PinCost = s.cost
	opts.PinCost.MemSurcharge = h.spec.SliceMemCost
	opts.NativeMemSurcharge = h.spec.NativeMemCost
	opts.ProfInterval = interval
	opts.SharedCodeCache = leg.shared
	opts.Artifacts = store
	opts.Trace = s.kernel.Trace
	if opts.Trace == nil {
		opts.Trace = obs.NewTracer()
	}
	res, err := core.Run(s.kernel, h.prog, factory, opts)
	if err != nil {
		return nil, err
	}
	if res.Err != nil {
		return nil, res.Err
	}
	r.sp, r.out, r.events = res, out(), opts.Trace.Events()
	if err := VerifyTrace(r.events, res, h.native.Time); err != nil {
		return nil, err
	}
	return r, nil
}

// diffTool builds a leg's tool: its factory and its observable output.
func diffTool(name string) (core.ToolFactory, func() uint64) {
	switch name {
	case "icount1":
		t := tools.NewIcount1(nil)
		return t.Factory(), t.Total
	case "icount2":
		t := tools.NewIcount2(nil)
		return t.Factory(), t.Total
	default:
		w := tools.NewWatch(nil, workload.DataReg, workload.DataBase)
		return w.Factory(), w.Hits
	}
}

// DiffTable renders RunDiff's reports.
func DiffTable(rs []*DiffReport) *report.Table {
	t := report.New("Differential harness: every arm vs the reference, identical virtual results",
		"benchmark", "ins", "pin cycles", "sp cycles", "arm runs", "link hits", "sb ins",
		"store hits", "disk hits", "samples", "max stack",
		"slices", "events", "verdict")
	for _, r := range rs {
		t.Row(r.Name, r.Ins, uint64(r.PinCycles), uint64(r.SPCycles), r.Runs, r.LinkHits, r.SuperblockIns,
			r.StoreHits, r.DiskHits, r.Samples, r.MaxStack, r.Slices, r.Events, "ok")
	}
	return t
}

// DiffArms describes the arm table: what each arm flips, the host
// counters it may move, and what it checks beyond equality.
func DiffArms() string {
	var sb strings.Builder
	sb.WriteString("Differential arms (reference: fast paths, no store, no telemetry):\n")
	for _, a := range diffArms {
		fmt.Fprintf(&sb, "  %-10s  %s\n", a.name, a.axis)
		if len(a.host) > 0 {
			fmt.Fprintf(&sb, "  %10s  host: %s\n", "", strings.Join(a.host, " "))
		}
		fmt.Fprintf(&sb, "  %10s  check: %s\n", "", a.engaged)
	}
	return sb.String()
}
