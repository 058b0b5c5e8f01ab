package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"superpin/internal/core"
	"superpin/internal/obs"
	"superpin/internal/workload"
)

func mustSpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	s, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return s
}

func obsTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.05
	cfg.TimesliceMSec = 40
	return cfg
}

// TestVerifyTraceRejectsViolations feeds VerifyTrace corrupted traces
// and expects each corruption to be caught.
func TestVerifyTraceRejectsViolations(t *testing.T) {
	cfg := obsTestConfig()
	spec := mustSpec(t, "gzip")
	prog, err := spec.Scaled(cfg.Scale).Build()
	if err != nil {
		t.Fatal(err)
	}
	native, err := core.RunNative(cfg.Kernel, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.SliceMSec = cfg.TimesliceMSec
	opts.Trace = obs.NewTracer()
	res, err := core.Run(cfg.Kernel, prog, newTool(Icount1).Factory(), opts)
	if err != nil || res.Err != nil {
		t.Fatalf("run: %v / %v", err, res.Err)
	}
	good := opts.Trace.Events()
	if err := VerifyTrace(good, res, native.Time); err != nil {
		t.Fatalf("clean trace rejected: %v", err)
	}

	corrupt := func(name string, mutate func([]obs.Event) []obs.Event) {
		evs := make([]obs.Event, len(good))
		copy(evs, good)
		if err := VerifyTrace(mutate(evs), res, native.Time); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
	corrupt("time reversal", func(evs []obs.Event) []obs.Event {
		for i := len(evs) - 1; i >= 0; i-- {
			if evs[i].Kind != obs.EvSchedule && evs[i].Time > 0 {
				evs[i].Time = 0
				break
			}
		}
		return evs
	})
	corrupt("dropped merge", func(evs []obs.Event) []obs.Event {
		out := evs[:0]
		dropped := false
		for _, ev := range evs {
			if !dropped && ev.Kind == obs.EvSliceMerge {
				dropped = true
				continue
			}
			out = append(out, ev)
		}
		return out
	})
	corrupt("inflated sleep", func(evs []obs.Event) []obs.Event {
		for i, ev := range evs {
			if ev.Kind == obs.EvSleep {
				evs[i].Time -= 1
				break
			}
		}
		return evs
	})
	corrupt("empty", func([]obs.Event) []obs.Event { return nil })
}

// TestRunBenchmarkTraceDir checks the harness trace export: a traced
// benchmark run writes valid Chrome trace JSON, and the traced run's
// measurements are identical to an untraced run's.
func TestRunBenchmarkTraceDir(t *testing.T) {
	cfg := obsTestConfig()
	spec := mustSpec(t, "gzip")

	plain, err := RunBenchmark(cfg, spec, Icount1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TraceDir = t.TempDir()
	traced, err := RunBenchmark(cfg, spec, Icount1)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Native != traced.Native || plain.Pin != traced.Pin || plain.SP != traced.SP {
		t.Fatalf("tracing changed results: %+v vs %+v", plain, traced)
	}

	path := filepath.Join(cfg.TraceDir, "gzip.icount1.trace.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
}

// TestRunBenchmarkNoFastPath: Config.PinCost reaches every run, and
// turning the dispatch fast paths off through it leaves the measured
// virtual cycles identical to a default run, while a virtual cost change
// through the same field moves them.
func TestRunBenchmarkNoFastPath(t *testing.T) {
	cfg := obsTestConfig()
	spec := mustSpec(t, "gzip")
	fast, err := RunBenchmark(cfg, spec, Icount2)
	if err != nil {
		t.Fatal(err)
	}
	slowCfg := cfg
	slowCfg.PinCost.NoFastPath = true
	slow, err := RunBenchmark(slowCfg, spec, Icount2)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Native != slow.Native || fast.Pin != slow.Pin || fast.SP != slow.SP || fast.Ins != slow.Ins {
		t.Fatalf("virtual results differ: fast %+v vs nofast %+v", fast, slow)
	}
	costlyCfg := cfg
	costlyCfg.PinCost.Dispatch++
	costly, err := RunBenchmark(costlyCfg, spec, Icount2)
	if err != nil {
		t.Fatal(err)
	}
	if costly.Pin == fast.Pin || costly.SP == fast.SP {
		t.Fatalf("Dispatch+1 left Pin (%d) or SuperPin (%d) cycles unchanged", costly.Pin, costly.SP)
	}
}
