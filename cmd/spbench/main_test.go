package main

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"superpin/internal/bench"
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

func TestRunSingleExperimentWithCSV(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "sigstats", "-scale", "0.02", "-benchmarks", "gzip", "-csv", dir}
	if err := run(args, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "sigstats.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty CSV")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fig99"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// diffOnce holds the one `-exp diff` run the experiment tests share: the
// gzip row of its CSV, keyed by column header.
var diffOnce struct {
	sync.Once
	row map[string]string
	err error
}

func diffRow(t *testing.T) map[string]string {
	t.Helper()
	diffOnce.Do(func() {
		dir, err := os.MkdirTemp("", "spbench-diff-csv-*")
		if err != nil {
			diffOnce.err = err
			return
		}
		defer os.RemoveAll(dir)
		args := []string{"-exp", "diff", "-scale", "0.02", "-benchmarks", "gzip", "-j", "1", "-csv", dir}
		if diffOnce.err = run(args, io.Discard, io.Discard); diffOnce.err != nil {
			return
		}
		f, err := os.Open(filepath.Join(dir, "diff.csv"))
		if err != nil {
			diffOnce.err = err
			return
		}
		defer f.Close()
		recs, err := csv.NewReader(f).ReadAll()
		if err != nil || len(recs) != 2 {
			diffOnce.err = fmt.Errorf("diff CSV: %d records, err %v", len(recs), err)
			return
		}
		diffOnce.row = map[string]string{}
		for i, col := range recs[0] {
			diffOnce.row[col] = recs[1][i]
		}
	})
	if diffOnce.err != nil {
		t.Fatal(diffOnce.err)
	}
	return diffOnce.row
}

// positive fails unless the named diff CSV columns hold positive integers.
func positive(t *testing.T, row map[string]string, cols ...string) {
	t.Helper()
	for _, col := range cols {
		if n, err := strconv.ParseUint(row[col], 10, 64); err != nil || n == 0 {
			t.Errorf("diff CSV %q = %q, want a positive count", col, row[col])
		}
	}
}

// TestRunDiffExperiment: -exp diff runs the differential harness and
// writes its CSV, one verified row per benchmark.
func TestRunDiffExperiment(t *testing.T) {
	row := diffRow(t)
	if row["benchmark"] != "gzip" || row["verdict"] != "ok" {
		t.Fatalf("diff CSV row = %v", row)
	}
	positive(t, row, "ins", "pin cycles", "sp cycles", "arm runs")
}

// TestRunObsSmokeExperiment: -exp diff traces every SuperPin run and
// verifies its stream; the reported trace is nonempty and spans slices.
func TestRunObsSmokeExperiment(t *testing.T) {
	positive(t, diffRow(t), "events", "slices")
}

// TestRunCacheDiffExperiment: -exp diff holds warm and disk-hydrated
// artifact stores to the reference, and both stores really serve runs.
func TestRunCacheDiffExperiment(t *testing.T) {
	positive(t, diffRow(t), "store hits", "disk hits")
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nosuchflag"}, io.Discard, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRunRejectsBadHarnessInput: a negative -j, a malformed or
// non-positive $SPBENCH_J and a benchmark listed twice (which would
// double-weight it in the AVG rows) are errors, not silent fallbacks.
func TestRunRejectsBadHarnessInput(t *testing.T) {
	fig3 := func(extra ...string) []string {
		return append([]string{"-exp", "fig3", "-scale", "0.01"}, extra...)
	}
	if err := run(fig3("-benchmarks", "gzip", "-j", "-3"), io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "-j") {
		t.Errorf("-j -3: err = %v", err)
	}
	if err := run(fig3("-benchmarks", "gzip,gzip"), io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("-benchmarks gzip,gzip: err = %v", err)
	}
	for _, v := range []string{"NaN", "+Inf", "-1"} {
		if err := run(fig3("-benchmarks", "gzip", "-msec", v), io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "-msec") {
			t.Errorf("-msec %s: err = %v", v, err)
		}
	}
	if err := run([]string{"-exp", "fig3", "-scale", "NaN"}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "-scale") {
		t.Errorf("-scale NaN: err = %v", err)
	}
	for _, v := range []string{"abc", "0", "-2"} {
		t.Setenv(bench.WorkersEnv, v)
		if err := run(fig3("-benchmarks", "gzip"), io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), bench.WorkersEnv) {
			t.Errorf("%s=%s: err = %v", bench.WorkersEnv, v, err)
		}
	}
}

func TestRunHelpIsNotAnError(t *testing.T) {
	if err := run([]string{"-h"}, io.Discard, io.Discard); err != nil {
		t.Fatalf("run(-h): %v", err)
	}
}

func TestRunTraceDir(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "fig3", "-scale", "0.02", "-benchmarks", "gzip", "-trace-dir", dir}
	if err := run(args, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "gzip.icount1.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if evs, ok := doc["traceEvents"].([]any); !ok || len(evs) == 0 {
		t.Fatal("trace has no events")
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if err := run([]string{"-exp", "fig3", "-scale", "0.01", "-benchmarks", "nope"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestRunWarmstartAndCacheDir: -cachedir creates a missing nested
// directory and persists artifacts into it across a suite fanned out over
// two workers, and a second suite that warm-starts from that directory
// reports byte-identical figures.
func TestRunWarmstartAndCacheDir(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "deep", "cache")
	var csvs [2][]byte
	for i, pass := range []string{"cold", "warm"} {
		out := filepath.Join(dir, pass)
		args := []string{"-exp", "fig3", "-scale", "0.02", "-benchmarks", "gzip,mgrid",
			"-j", "2", "-cachedir", cache, "-csv", out}
		if err := run(args, io.Discard, io.Discard); err != nil {
			t.Fatalf("%s pass: %v", pass, err)
		}
		data, err := os.ReadFile(filepath.Join(out, "fig3.csv"))
		if err != nil {
			t.Fatal(err)
		}
		csvs[i] = data
		if i == 0 {
			ents, err := os.ReadDir(cache)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 2 {
				t.Fatalf("cache dir holds %d entries, want a predecode set for each benchmark", len(ents))
			}
		}
	}
	if string(csvs[0]) != string(csvs[1]) {
		t.Fatalf("warm-start figures differ from cold:\n%s\nvs\n%s", csvs[0], csvs[1])
	}
}

// TestRunCacheDirUnusable: a -cachedir path that runs through a regular
// file must be a clear non-zero-exit error (MkdirAll fails even for
// root), before any experiment runs.
func TestRunCacheDirUnusable(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cd := range []string{file, filepath.Join(file, "sub")} {
		if err := run([]string{"-exp", "fig3", "-scale", "0.01", "-benchmarks", "gzip", "-cachedir", cd}, io.Discard, io.Discard); err == nil {
			t.Errorf("-cachedir %s accepted", cd)
		}
	}
}
