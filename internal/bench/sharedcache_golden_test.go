package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"superpin/internal/core"
	"superpin/internal/obs"
	"superpin/internal/tools"
	"superpin/internal/workload"
)

var updateSharedGolden = flag.Bool("update", false, "rewrite testdata/sharedcache_golden.txt from the current runs")

// TestSharedCacheGolden pins the virtual outcome of SuperPin runs with
// the Section 8 shared code cache on: the total time, every slice's CPU
// time and instruction count, the run statistics and the slices' summed
// code-cache compiles, for gcc (compile-bound) and mgrid (a steady
// loop nest) under icount1 and icount2. Which translation a slice sees
// in the shared cache, and when, decides what it is charged, so any
// drift in the cache's visibility rule moves a line here. Regenerate
// with `go test ./internal/bench -run TestSharedCacheGolden -update`
// only when the virtual model is meant to change.
func TestSharedCacheGolden(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.05
	cfg.TimesliceMSec = 50
	var sb strings.Builder
	for _, name := range []string{"gcc", "mgrid"} {
		spec, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no benchmark %q", name)
		}
		spec = spec.Scaled(cfg.Scale)
		prog, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, tool := range []struct {
			name string
			ic   *tools.Icount
		}{{"icount1", tools.NewIcount1(nil)}, {"icount2", tools.NewIcount2(nil)}} {
			opts := core.DefaultOptions()
			opts.SliceMSec = cfg.TimesliceMSec
			opts.MaxSlices = cfg.MaxSlices
			opts.PinCost = cfg.PinCost
			opts.PinCost.MemSurcharge = spec.SliceMemCost
			opts.NativeMemSurcharge = spec.NativeMemCost
			opts.SharedCodeCache = true
			opts.Metrics = obs.NewMetrics()
			res, err := core.Run(cfg.Kernel, prog, tool.ic.Factory(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Fatalf("%s/%s: %v", name, tool.name, res.Err)
			}
			fmt.Fprintf(&sb, "%s %s total=%d count=%d compiles=%d slices=%d\n",
				name, tool.name, res.TotalTime, tool.ic.Total(),
				opts.Metrics.Counter("pin.cache.compiles"), len(res.Slices))
			fmt.Fprintf(&sb, "  stats %+v\n", res.Stats)
			for _, s := range res.Slices {
				fmt.Fprintf(&sb, "  slice %d cpu=%d ins=%d\n", s.Num, s.CPUTime, s.Ins)
			}
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "sharedcache_golden.txt")
	if *updateSharedGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, want %d", len(gl), len(wl))
	}
}
