package bench

import (
	"reflect"
	"strings"
	"testing"

	"superpin/internal/core"
	"superpin/internal/jit"
	"superpin/internal/pin"
)

// TestRunDiff runs every arm over every leg of three benchmarks —
// compile-heavy gcc plus gzip and mgrid — and requires each to show the
// machinery the arms switch off really running in the reference.
func TestRunDiff(t *testing.T) {
	cfg := obsTestConfig()
	cfg.Benchmarks = []string{"gzip", "gcc", "mgrid"}
	reports, err := RunDiff(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("got %d reports", len(reports))
	}
	for _, r := range reports {
		if r.LinkHits == 0 || r.SuperblockIns == 0 {
			t.Errorf("%s: fast paths idle: %+v", r.Name, r)
		}
		if r.Samples == 0 || r.Slices < 2 || r.MaxStack == 0 {
			t.Errorf("%s: profile merge untested: %d samples, %d slices, stack depth %d",
				r.Name, r.Samples, r.Slices, r.MaxStack)
		}
		if r.StoreHits == 0 || r.DiskHits == 0 {
			t.Errorf("%s: artifact store idle: %d store hits, %d disk hits", r.Name, r.StoreHits, r.DiskHits)
		}
	}
}

// runArms runs only the named arms of the table over cfg's benchmarks and
// returns one report per benchmark, each with every leg compared.
func runArms(t *testing.T, cfg Config, names ...string) []*DiffReport {
	t.Helper()
	arms := make([]diffArm, len(names))
	for i, name := range names {
		arms[i] = armNamed(t, name)
	}
	reports, err := runDiff(cfg, arms)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(cfg.Benchmarks) {
		t.Fatalf("got %d reports for %d benchmarks", len(reports), len(cfg.Benchmarks))
	}
	for _, r := range reports {
		if r.Ins == 0 || r.PinCycles == 0 || r.SPCycles == 0 || r.Events == 0 {
			t.Fatalf("%s: empty report %+v", r.Name, r)
		}
	}
	return reports
}

// TestRunFastPathDiff: serial Pin and SuperPin runs with the dispatch
// fast paths off match the reference on every leg, and the reference
// really links traces and runs superblocks.
func TestRunFastPathDiff(t *testing.T) {
	cfg := obsTestConfig()
	cfg.Benchmarks = []string{"gzip"}
	for _, r := range runArms(t, cfg, "nofastpath") {
		if r.Runs != len(diffLegs) {
			t.Errorf("%s: %d arm runs, want one per leg (%d)", r.Name, r.Runs, len(diffLegs))
		}
		if r.LinkHits == 0 || r.SuperblockIns == 0 {
			t.Errorf("%s: fast paths idle: %d link hits, %d superblock instructions",
				r.Name, r.LinkHits, r.SuperblockIns)
		}
	}
}

// TestRunProfDiff: profiled serial and merged SuperPin profiles equal the
// native one (checked on every reference), detaching the profiler changes
// nothing else, and the merge spans several slices and a call stack.
func TestRunProfDiff(t *testing.T) {
	cfg := obsTestConfig()
	cfg.Benchmarks = []string{"gzip"}
	profiled := 0
	for _, leg := range diffLegs {
		if leg.prof {
			profiled++
		}
	}
	for _, r := range runArms(t, cfg, "unprofiled") {
		if r.Runs != profiled {
			t.Errorf("%s: %d arm runs, want one per profiled leg (%d)", r.Name, r.Runs, profiled)
		}
		if r.Samples == 0 || r.Slices < 2 || r.MaxStack == 0 {
			t.Errorf("%s: profile merge untested: %d samples, %d slices, stack depth %d",
				r.Name, r.Samples, r.Slices, r.MaxStack)
		}
	}
}

// TestRunObsSmoke: runs with a live registry and ring tracer attached
// match the reference, and every SuperPin stream passes VerifyTrace.
func TestRunObsSmoke(t *testing.T) {
	cfg := obsTestConfig()
	cfg.Benchmarks = []string{"gzip"}
	for _, r := range runArms(t, cfg, "telemetry") {
		if r.Runs != len(diffLegs) || r.Slices == 0 {
			t.Errorf("%s: %d arm runs over %d slices", r.Name, r.Runs, r.Slices)
		}
	}
}

// TestRunCacheDiffSmall: runs on a warm in-process store and on a store
// hydrated from disk match cold runs, and both stores really serve them.
func TestRunCacheDiffSmall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.02
	cfg.Benchmarks = []string{"gzip", "mgrid"}
	cfg.Workers = 1
	for _, r := range runArms(t, cfg, "warm", "disk-warm") {
		if r.StoreHits == 0 || r.DiskHits == 0 {
			t.Errorf("%s: %d store hits, %d disk hits", r.Name, r.StoreHits, r.DiskHits)
		}
	}
}

// TestRunWarmstartSmall: a run on an in-process store the previous run
// populated matches the cold one with the default worker count, and the
// store served it.
func TestRunWarmstartSmall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.02
	cfg.Benchmarks = []string{"gzip"}
	for _, r := range runArms(t, cfg, "warm") {
		if r.StoreHits == 0 {
			t.Errorf("%s: warm store served no predecode hit", r.Name)
		}
	}
}

// comparedCounters are the engine and code-cache counters every arm must
// leave equal. Together with the arms' declared host counters they
// classify every field of pin.Stats and jit.CacheStats.
var comparedCounters = []string{
	"Engine.ExecIns", "Engine.AnalysisCalls", "Engine.IfCalls", "Engine.ThenCalls", "Engine.Dispatches", "Engine.TraceBuilds",
	"Cache.Lookups", "Cache.Misses", "Cache.Compiles", "Cache.CompiledIns", "Cache.Flushes",
}

// TestDiffCountersClassified fails when a pin.Stats or jit.CacheStats
// field is neither compared in every arm nor declared host-only by some
// arm, so a new counter cannot slip past the harness unclassified.
func TestDiffCountersClassified(t *testing.T) {
	res := reflect.ValueOf(core.PinResult{})
	class := map[string]string{}
	for _, p := range comparedCounters {
		if !fieldByPath(res, p).IsValid() {
			t.Errorf("compared counter %q is not a core.PinResult field", p)
		}
		class[p] = "compared"
	}
	for _, arm := range diffArms {
		for _, p := range arm.host {
			if !fieldByPath(res, p).IsValid() {
				t.Errorf("arm %s declares %q, not a core.PinResult field", arm.name, p)
			}
			if class[p] == "compared" {
				t.Errorf("arm %s declares %s host-only, but it is compared in every arm", arm.name, p)
			}
			class[p] = "host"
		}
	}
	for _, s := range []struct {
		prefix string
		typ    reflect.Type
	}{{"Engine", reflect.TypeOf(pin.Stats{})}, {"Cache", reflect.TypeOf(jit.CacheStats{})}} {
		for i := 0; i < s.typ.NumField(); i++ {
			if p := s.prefix + "." + s.typ.Field(i).Name; class[p] == "" {
				t.Errorf("%s is unclassified: add it to comparedCounters or to an arm's host list", p)
			}
		}
	}
}

// mutationConfig is the smallest run the mutation tests need.
func mutationConfig() Config {
	cfg := obsTestConfig()
	cfg.Scale = 0.02
	cfg.Benchmarks = []string{"gzip"}
	return cfg
}

func armNamed(t *testing.T, name string) diffArm {
	t.Helper()
	for _, a := range diffArms {
		if a.name == name {
			return a
		}
	}
	t.Fatalf("no arm %q", name)
	return diffArm{}
}

// TestRunDiffCatchesVirtualChange: an arm that moves a virtual cost must
// fail, naming the arm and the first differing field.
func TestRunDiffCatchesVirtualChange(t *testing.T) {
	bad := diffArm{name: "dispatch+1", apply: func(s *diffSetup) { s.cost.Dispatch++ }}
	_, err := runDiff(mutationConfig(), []diffArm{bad})
	if err == nil || !strings.Contains(err.Error(), "[dispatch+1]") || !strings.Contains(err.Error(), "at Time (ref ") {
		t.Fatalf("err = %v, want a failure naming the arm and Time", err)
	}
}

// TestRunDiffCatchesUndeclaredCounter: a nofastpath arm that declares no
// host counters must fail on the link counters it moves.
func TestRunDiffCatchesUndeclaredCounter(t *testing.T) {
	bare := armNamed(t, "nofastpath")
	bare.host = nil
	_, err := runDiff(mutationConfig(), []diffArm{bare})
	if err == nil || !strings.Contains(err.Error(), "[nofastpath]") || !strings.Contains(err.Error(), "Cache.LinkHits (ref ") {
		t.Fatalf("err = %v, want a failure naming nofastpath and Cache.LinkHits", err)
	}
}

// TestRunDiffEngagedCheckCatchesIdleStore: equality cannot see a store
// that never engages — a warm arm that attaches none still matches the
// reference once its engaged check is skipped — but the check can.
func TestRunDiffEngagedCheckCatchesIdleStore(t *testing.T) {
	idle := armNamed(t, "warm")
	idle.apply = func(*diffSetup) {}
	unchecked := idle
	unchecked.check = nil
	if _, err := runDiff(mutationConfig(), []diffArm{unchecked}); err != nil {
		t.Fatalf("idle warm arm without its check failed equality: %v", err)
	}
	if _, err := runDiff(mutationConfig(), []diffArm{idle}); err == nil || !strings.Contains(err.Error(), "[warm]") {
		t.Fatalf("err = %v, want the warm arm's engaged check to fail", err)
	}
}
