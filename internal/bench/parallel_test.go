package bench

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// parallelConfig is a fast configuration for determinism checks: a small
// subset at a small scale, so the suite runs many times per test binary.
func parallelConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.04
	cfg.TimesliceMSec = 80
	cfg.Benchmarks = []string{"gzip", "mcf", "mgrid", "swim"}
	return cfg
}

// renderResults flattens every externally-meaningful Result field into a
// byte-comparable string.
func renderResults(rs []*Result) string {
	s := ""
	for _, r := range rs {
		s += fmt.Sprintf("%s %d %d %d %d %.9f %.9f %.9f\n",
			r.Name, r.Native, r.Pin, r.SP, r.Ins, r.PinPct, r.SPPct, r.Speedup)
	}
	return s
}

// TestRunSuiteParallelDeterminism is the harness's central guarantee:
// RunSuite with 8 workers produces byte-identical Results — names, cycle
// counts, instruction counts, percentages and speedups — to a serial run.
func TestRunSuiteParallelDeterminism(t *testing.T) {
	serialCfg := parallelConfig()
	serialCfg.Workers = 1
	serial, err := RunSuite(serialCfg, Icount1)
	if err != nil {
		t.Fatal(err)
	}

	parCfg := parallelConfig()
	parCfg.Workers = 8
	par, err := RunSuite(parCfg, Icount1)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := renderResults(par), renderResults(serial); got != want {
		t.Fatalf("parallel suite diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s", want, got)
	}
	// The full Detail trees must agree too, not just the headline numbers.
	for i := range serial {
		if !reflect.DeepEqual(serial[i], par[i]) {
			t.Fatalf("%s: Result structs differ between serial and parallel", serial[i].Name)
		}
	}
}

// TestFig7ParallelDeterminism checks a sweep-style runner the same way.
func TestFig7ParallelDeterminism(t *testing.T) {
	mk := func(workers int) string {
		cfg := parallelConfig()
		cfg.Workers = workers
		tbl, rows, err := Fig7(cfg, []int{1, 4, 8})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v\n%+v", tbl, rows)
	}
	if serial, par := mk(1), mk(8); serial != par {
		t.Fatalf("Fig7 diverged:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
	}
}

func TestRunIndexedOrderAndBounds(t *testing.T) {
	var inFlight, maxInFlight atomic.Int32
	out, err := runIndexed(3, 64, func(i int) (int, error) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			old := maxInFlight.Load()
			if cur <= old || maxInFlight.CompareAndSwap(old, cur) {
				break
			}
		}
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if m := maxInFlight.Load(); m > 3 {
		t.Fatalf("observed %d concurrent tasks, bound is 3", m)
	}
}

func TestRunIndexedFailFast(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int32
	_, err := runIndexed(2, 1000, func(i int) (int, error) {
		calls.Add(1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := calls.Load(); n > 16 {
		t.Fatalf("%d tasks ran after the failure; fail-fast did not stop dispatch", n)
	}
}

func TestRunIndexedSerialPath(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	_, err := runIndexed(1, 10, func(i int) (int, error) {
		ran++
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) || ran != 4 {
		t.Fatalf("err = %v after %d calls, want boom after 4", err, ran)
	}
}

func TestResolveWorkers(t *testing.T) {
	t.Setenv(WorkersEnv, "")
	if got, err := resolveWorkers(0); err != nil || got < 1 {
		t.Fatalf("default workers = %d, %v; want >= 1", got, err)
	}
	t.Setenv(WorkersEnv, "3")
	if got, err := resolveWorkers(0); err != nil || got != 3 {
		t.Fatalf("env workers = %d, %v; want 3", got, err)
	}
	for _, bad := range []string{"junk", "0", "-2"} {
		t.Setenv(WorkersEnv, bad)
		if got, err := resolveWorkers(5); err != nil || got != 5 {
			t.Fatalf("explicit workers under %s=%q = %d, %v; want 5", WorkersEnv, bad, got, err)
		}
		if _, err := resolveWorkers(0); err == nil || !strings.Contains(err.Error(), WorkersEnv) {
			t.Fatalf("%s=%q: err = %v, want a rejection naming the variable", WorkersEnv, bad, err)
		}
	}
}
