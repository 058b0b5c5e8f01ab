package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain clears the environment defaults of -serve, -lastgasp and
// -cachedir, so a shell that exports them cannot make these tests serve
// on a fixed port, arm signal handlers or write a shared cache.
func TestMain(m *testing.M) {
	for _, v := range []string{"SUPERPIN_SERVE", "SUPERPIN_LASTGASP", "SUPERPIN_CACHE"} {
		os.Unsetenv(v)
	}
	os.Exit(m.Run())
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := [][]string{
		{},                                  // no app
		{"--", "a", "b"},                    // two apps
		{"-t", "nosuchtool", "--", "gzip"},  // unknown tool
		{"--", "nosuchbench"},               // unknown app
		{"-sp", "1", "--", "missing.svasm"}, // missing file
		{"-nosuchflag", "--", "gzip"},       // unknown flag
		{"-sp", "banana", "--", "gzip"},     // unparsable flag value
		{"-t", "dcache", "-cachebytes", "1000", "--", "gzip"},   // bad geometry
		{"-t", "acache", "-linebytes", "48", "--", "gzip"},      // line not power of two
		{"-t", "sampler", "-sampler-budget", "0", "--", "gzip"}, // bad budget
		{"-t", "acache", "-ways", "0", "--", "gzip"},            // bad associativity
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// TestRunRejectsNonFiniteInterval: a -spmsec that is not a finite
// positive number is an error naming the option, so main exits non-zero
// instead of running the application as one slice.
func TestRunRejectsNonFiniteInterval(t *testing.T) {
	for _, v := range []string{"NaN", "+Inf", "-1"} {
		err := run([]string{"-spmsec", v, "-compare=false", "-scale", "0.01", "--", "gzip"})
		if err == nil || !strings.Contains(err.Error(), "SliceMSec") {
			t.Errorf("-spmsec %s: %v", v, err)
		}
	}
}

// TestRunHelpIsNotAnError: -h prints usage via flag.ContinueOnError and
// must exit zero, unlike a genuinely bad flag.
func TestRunHelpIsNotAnError(t *testing.T) {
	if err := run([]string{"-h"}); err != nil {
		t.Fatalf("run(-h): %v", err)
	}
}

func TestRunCatalogBenchmarkBothModes(t *testing.T) {
	for _, args := range [][]string{
		{"-t", "icount2", "-scale", "0.01", "-spmsec", "50", "--", "gzip"},
		{"-t", "icount1", "-sp", "0", "-scale", "0.01", "--", "gzip"},
		{"-t", "dcache", "-scale", "0.01", "-spmsec", "50", "--", "mcf"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunAssemblyFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.svasm")
	src := `
	li r10, 0
	li r11, 50000
loop:
	addi r10, r10, 1
	blt r10, r11, loop
	li r1, 1
	li r2, 0
	syscall
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-t", "icount2", "-spmsec", "100", "--", path}); err != nil {
		t.Fatal(err)
	}
}

func TestMakeToolAllNames(t *testing.T) {
	tc := toolConfig{samplerBudget: 100, cacheBytes: 1 << 14, lineBytes: 32, ways: 4}
	for _, name := range []string{"icount1", "icount2", "dcache", "acache", "itrace",
		"branchprof", "opmix", "sampler", "bbcount", "callprof", "memprofile"} {
		if _, err := makeTool(name, tc); err != nil {
			t.Errorf("makeTool(%q): %v", name, err)
		}
	}
}

// TestRunTraceAndMetricsOutput: -trace must emit valid Chrome trace JSON
// with per-track non-decreasing timestamps, and -metrics valid JSON.
func TestRunTraceAndMetricsOutput(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "out.json")
	metrics := filepath.Join(dir, "metrics.json")
	args := []string{"-t", "icount2", "-scale", "0.01", "-spmsec", "50",
		"-compare=false", "-trace", trace, "-metrics", metrics, "--", "gzip"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Ts  float64 `json:"ts"`
			PID int     `json:"pid"`
			TID int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	last := map[[2]int]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		key := [2]int{ev.PID, ev.TID}
		if ev.Ts < last[key] {
			t.Fatalf("track %v went backwards: %v after %v", key, ev.Ts, last[key])
		}
		last[key] = ev.Ts
	}

	mraw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(mraw, &m); err != nil {
		t.Fatalf("metrics is not valid JSON: %v", err)
	}
	if len(m) == 0 {
		t.Fatal("metrics registry is empty")
	}

	// The dispatch fast-path counters must be published (the keys exist
	// even when a counter is zero), and this icount2 run must actually
	// have exercised both trace linking and superblock batching.
	counters, ok := m["counters"].(map[string]any)
	if !ok {
		t.Fatalf("metrics JSON has no counters object: %v", m)
	}
	for _, key := range []string{"pin.link.hits", "pin.link.misses", "pin.link.invalidations", "pin.superblock.ins"} {
		if _, ok := counters[key]; !ok {
			t.Errorf("metrics missing counter %q", key)
		}
	}
	for _, key := range []string{"pin.link.hits", "pin.superblock.ins"} {
		if v, _ := counters[key].(float64); v == 0 {
			t.Errorf("counter %q is zero; fast path did not engage", key)
		}
	}
	// Host trace builds are published beside the virtual compiles; the
	// slices adopt from the run's trace cache, so they build fewer.
	builds, _ := counters["pin.trace_builds"].(float64)
	compiles, _ := counters["pin.cache.compiles"].(float64)
	if builds == 0 || builds >= compiles {
		t.Errorf("pin.trace_builds %v, pin.cache.compiles %v: want some builds, fewer than compiles", builds, compiles)
	}
}

// TestRunPinModeTrace: the -sp 0 serial-Pin path must also honour -trace.
func TestRunPinModeTrace(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "pin.json")
	args := []string{"-t", "icount1", "-sp", "0", "-scale", "0.01",
		"-compare=false", "-trace", trace, "--", "gzip"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("pin trace is not valid JSON: %v", err)
	}
	if evs, ok := doc["traceEvents"].([]any); !ok || len(evs) == 0 {
		t.Fatal("pin trace has no events")
	}
}

// TestRunCacheDir: -cachedir creates a missing (nested) directory,
// persists the predecoded pages into it, and a second run hydrates them
// while publishing artifact metrics.
func TestRunCacheDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "deep", "cache")
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	args := []string{"-t", "icount1", "-sp", "0", "-scale", "0.01",
		"-compare=false", "-cachedir", dir, "--", "gzip"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("cache dir holds %d entries, want the predecode set", len(ents))
	}
	if err := run([]string{"-t", "icount1", "-sp", "0", "-scale", "0.01",
		"-compare=false", "-cachedir", dir, "-metrics", metrics, "--", "gzip"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Gauges map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Gauges["artifact.disk.hits"] == 0 {
		t.Fatalf("second run read nothing from the cache: %v", m.Gauges)
	}
	// Both modes must accept the directory; SuperPin publishes through
	// the core engine's metrics path.
	if err := run([]string{"-t", "icount2", "-scale", "0.01", "-spmsec", "50",
		"-compare=false", "-cachedir", dir, "--", "gzip"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunCacheDirUnusable: a path that cannot become a directory (it
// runs through a regular file, so MkdirAll fails even for root) must be
// a clear non-zero-exit error, in both modes.
func TestRunCacheDirUnusable(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-sp", "0", "-scale", "0.01", "-cachedir", filepath.Join(file, "sub"), "--", "gzip"},
		{"-scale", "0.01", "-cachedir", file, "--", "gzip"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded with an unusable cache dir", args)
		}
	}
}
