package bench

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// WorkersEnv is the environment variable consulted when Config.Workers
// (or spbench's -j flag) is zero.
const WorkersEnv = "SPBENCH_J"

// resolveWorkers picks the worker-pool size: an explicit positive value
// wins, then the SPBENCH_J environment override, then GOMAXPROCS. A set
// SPBENCH_J that is not a positive integer is an error, not a silent
// fallback.
func resolveWorkers(n int) (int, error) {
	if n > 0 {
		return n, nil
	}
	s := os.Getenv(WorkersEnv)
	if s == "" {
		return runtime.GOMAXPROCS(0), nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bench: $%s=%q: want a positive worker count", WorkersEnv, s)
	}
	return v, nil
}

// runIndexed evaluates fn(0..n-1) over a bounded worker pool and returns
// the results in index order, so parallel output is byte-identical to a
// serial run. Every experiment run owns its own kernel, memory image and
// engine, which is what makes the fan-out safe.
//
// The pool fails fast: once any index errors, no new indices are
// dispatched (in-flight runs finish). Among the errors observed, the
// lowest-index one is returned, keeping the common single-failure case
// deterministic.
func runIndexed[T any](workers, n int, fn func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	workers, err := resolveWorkers(workers)
	if err != nil {
		return nil, err
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			r, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		errs   = make([]error, n)
		wg     sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || failed.Load() {
					return
				}
				r, err := fn(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
