package core

import (
	"strings"
	"testing"

	"superpin/internal/kernel"
	"superpin/internal/obs"
)

// TestSharedCodeCacheExactAndFaster covers the Section 8 shared code
// cache: results stay exact, and a compile-heavy workload gets faster
// because slices reuse each other's translations.
func TestSharedCodeCacheExactAndFaster(t *testing.T) {
	// A workload with a larger code footprint: many syscall-free loop
	// iterations over a sizeable body make per-slice compilation matter.
	prog := buildWorkload(t, 8000, 4095, kernel.SysTime)
	cfg := testKernelCfg()
	native, err := RunNative(cfg, prog, 0)
	if err != nil {
		t.Fatal(err)
	}

	run := func(shared bool) (uint64, kernel.Cycles) {
		factory, count := newIcount()
		opts := smallOpts(20)
		opts.SharedCodeCache = shared
		res, err := Run(cfg, prog, factory, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return count(), res.TotalTime
	}

	countOff, timeOff := run(false)
	countOn, timeOn := run(true)
	if countOff != native.Ins || countOn != native.Ins {
		t.Fatalf("icounts: off=%d on=%d native=%d", countOff, countOn, native.Ins)
	}
	if timeOn >= timeOff {
		t.Fatalf("shared code cache did not help: %d vs %d", timeOn, timeOff)
	}
}

// TestSharedCodeCacheLookupCounts checks the pin.shared.* metrics: a
// slice looks a translation up once per local code-cache miss, so over
// the run's slices the hits and misses sum to pin.cache.misses. They
// used to sum to each slice's copy of the cache-wide totals instead.
func TestSharedCodeCacheLookupCounts(t *testing.T) {
	prog := buildWorkload(t, 8000, 4095, kernel.SysTime)
	factory, _ := newIcount()
	opts := smallOpts(20)
	opts.SharedCodeCache = true
	opts.Metrics = obs.NewMetrics()
	res, err := Run(testKernelCfg(), prog, factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	m := opts.Metrics
	hits, misses := m.Counter("pin.shared.hits"), m.Counter("pin.shared.misses")
	if local := m.Counter("pin.cache.misses"); hits+misses != local || hits == 0 || len(res.Slices) < 10 {
		t.Fatalf("%d slices: %d shared hits + %d shared misses, %d local misses",
			len(res.Slices), hits, misses, local)
	}
}

// TestSharedCodeCacheWithTimeoutBoundaries checks the SplitPC interaction:
// a slice must not adopt a shared translation that crosses its boundary
// PC, or block-granularity counting would go inexact. The exactness
// assertion is the proof.
func TestSharedCodeCacheWithTimeoutBoundaries(t *testing.T) {
	prog := buildWorkload(t, 6000, 4095, kernel.SysTime) // timeout-dominated
	cfg := testKernelCfg()
	native, err := RunNative(cfg, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	factory, count := newIcount()
	opts := smallOpts(15)
	opts.SharedCodeCache = true
	res, err := Run(cfg, prog, factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Stats.TimeoutForks < 3 {
		t.Fatalf("want several timeout boundaries, got %d", res.Stats.TimeoutForks)
	}
	if count() != native.Ins {
		t.Fatalf("icount %d, native %d", count(), native.Ins)
	}
}

func TestTimelineRendering(t *testing.T) {
	prog := buildWorkload(t, 3000, 31, kernel.SysTime)
	factory, _ := newIcount()
	res, err := Run(testKernelCfg(), prog, factory, smallOpts(40))
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline(60)
	lines := strings.Split(tl, "\n")
	if !strings.HasPrefix(lines[0], "master") {
		t.Fatalf("first row %q", lines[0])
	}
	// One row per slice plus master plus legend.
	sliceRows := 0
	sawSleep, sawRun := false, false
	for _, ln := range lines[1:] {
		if strings.HasPrefix(ln, "S") {
			sliceRows++
			if strings.Contains(ln, "z") {
				sawSleep = true
			}
			if strings.Contains(ln, "#") {
				sawRun = true
			}
		}
	}
	if sliceRows != res.Stats.Forks {
		t.Fatalf("%d slice rows for %d slices:\n%s", sliceRows, res.Stats.Forks, tl)
	}
	if !sawSleep || !sawRun {
		t.Fatalf("timeline missing sleep or run phases:\n%s", tl)
	}
	// The master row must show the drained pipeline at the end.
	if !strings.Contains(lines[0], "_") {
		t.Fatalf("master row shows no pipeline drain:\n%s", tl)
	}
}

func TestTimelineEmptyAndNarrow(t *testing.T) {
	r := &Result{}
	if got := r.Timeline(5); !strings.Contains(got, "empty") {
		t.Fatalf("empty run rendering: %q", got)
	}
}

// TestTimelineDegenerateInputs: Timeline must stay well-formed — every
// row the same width, no panics — for hostile widths and Results whose
// fields are inconsistent (zero duration, events past TotalTime, more
// slices than columns, out-of-order slice phases).
func TestTimelineDegenerateInputs(t *testing.T) {
	manySlices := make([]SliceInfo, 50)
	for i := range manySlices {
		manySlices[i] = SliceInfo{
			Num:   i + 1,
			Start: kernel.Cycles(i * 10),
			Woke:  kernel.Cycles(i*10 + 5),
			End:   kernel.Cycles(i*10 + 9),
		}
	}
	cases := []struct {
		name  string
		res   *Result
		width int
	}{
		{"zero width", &Result{TotalTime: 100, MasterEnd: 80}, 0},
		{"negative width", &Result{TotalTime: 100, MasterEnd: 80}, -7},
		{"zero-duration run", &Result{}, 80},
		{"master past total", &Result{TotalTime: 50, MasterEnd: 500}, 40},
		{"slice end past total", &Result{
			TotalTime: 100, MasterEnd: 90,
			Slices: []SliceInfo{{Num: 1, Start: 10, Woke: 20, End: 4000}},
		}, 40},
		{"woke before start", &Result{
			TotalTime: 100, MasterEnd: 90,
			Slices: []SliceInfo{{Num: 1, Start: 50, Woke: 10, End: 60}},
		}, 40},
		{"end before start", &Result{
			TotalTime: 100, MasterEnd: 90,
			Slices: []SliceInfo{{Num: 1, Start: 50, Woke: 50, End: 10}},
		}, 40},
		{"more slices than columns", &Result{
			TotalTime: 500, MasterEnd: 490, Slices: manySlices,
		}, 25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.res.Timeline(tc.width)
			if got == "" {
				t.Fatal("empty rendering")
			}
			if tc.res.TotalTime == 0 && tc.res.MasterEnd == 0 && len(tc.res.Slices) == 0 {
				if !strings.Contains(got, "empty") {
					t.Fatalf("zero-duration run should render the empty marker, got %q", got)
				}
				return
			}
			lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
			if !strings.HasPrefix(lines[0], "master") {
				t.Fatalf("first row %q", lines[0])
			}
			rowLen := len(lines[0])
			rows := 1
			for _, ln := range lines[1:] {
				if !strings.HasPrefix(ln, "S") {
					continue // legend
				}
				rows++
				if len(ln) != rowLen {
					t.Fatalf("ragged row (%d cells, want %d): %q", len(ln), rowLen, ln)
				}
			}
			if rows != 1+len(tc.res.Slices) {
				t.Fatalf("%d rows for %d slices", rows, len(tc.res.Slices))
			}
		})
	}
}

// TestAlwaysFullCheckStillExact verifies the ablation mode is a pure
// performance change.
func TestAlwaysFullCheckStillExact(t *testing.T) {
	prog := buildWorkload(t, 4000, 4095, kernel.SysTime)
	cfg := testKernelCfg()
	native, err := RunNative(cfg, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	factory, count := newIcount()
	opts := smallOpts(20)
	opts.AlwaysFullCheck = true
	res, err := Run(cfg, prog, factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if count() != native.Ins {
		t.Fatalf("icount %d, native %d", count(), native.Ins)
	}
	if res.Stats.QuickChecks != 0 {
		t.Fatalf("quick checks ran in AlwaysFullCheck mode: %d", res.Stats.QuickChecks)
	}
	if res.Stats.FullChecks == 0 {
		t.Fatal("no full checks ran")
	}
}
