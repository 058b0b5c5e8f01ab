// Package telemetry is the live observability plane of the SuperPin
// reproduction: a flight recorder over the obs event stream and an HTTP
// server exposing the obs metrics registry, run status, and Perfetto
// trace snapshots while the run is still executing.
//
// Everything here is host-side only. The recorder snapshots the ring
// tracer (obs.NewRingTracer) the run emits into from its single
// simulation goroutine, so a mid-run snapshot sees a well-ordered
// prefix-with-bounded-window of the exact stream a full -trace export
// would produce. Virtual results are never read or written: the
// differential's telemetry arm (-exp diff) passes byte-identical with
// telemetry enabled.
package telemetry

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"superpin/internal/obs"
)

// Recorder is the flight recorder: a handle on the run's (typically
// bounded) tracer that can snapshot or dump it at any moment, including
// a "last-gasp" Perfetto dump on SIGTERM or panic. A nil *Recorder is a
// valid no-op, mirroring the obs types.
type Recorder struct {
	tr     *obs.Tracer
	disarm func() // stops the armed last-gasp handler; nil when unarmed

	mu     sync.Mutex
	dumped bool // last-gasp written; don't double-dump on signal+defer
}

// NewRecorder wraps a tracer. Returns nil when tr is nil, so an
// untraced run composes to a no-op recorder.
func NewRecorder(tr *obs.Tracer) *Recorder {
	if tr == nil {
		return nil
	}
	return &Recorder{tr: tr}
}

// Tracer returns the wrapped tracer (nil on a nil receiver).
func (r *Recorder) Tracer() *obs.Tracer {
	if r == nil {
		return nil
	}
	return r.tr
}

// Snapshot copies the ring's current contents in emission order. Safe
// mid-run and on a nil receiver.
func (r *Recorder) Snapshot() []obs.Event {
	if r == nil {
		return nil
	}
	return r.tr.Events()
}

// Dropped reports how many events the bounded ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.tr.Dropped()
}

// WriteTrace writes a Perfetto-loadable Chrome-trace snapshot of the
// ring to w.
func (r *Recorder) WriteTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, r.Snapshot())
}

// DumpTo writes a trace snapshot to path (the last-gasp artifact).
// Only the first dump wins; later calls are no-ops so a SIGTERM dump
// and a deferred panic dump don't race or overwrite each other.
func (r *Recorder) DumpTo(path string) error {
	if r == nil || path == "" {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dumped {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := obs.WriteChromeTrace(f, r.tr.Events())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		r.dumped = true
	}
	return werr
}

// ArmLastGasp installs a SIGTERM/SIGINT handler that dumps the ring to
// path and exits with the conventional fatal-signal status. Call once,
// from the CLI, after the recorder is wired into the run; pair it with
// a deferred DumpOnPanic for the panic half. Plane.Close disarms it.
func (r *Recorder) ArmLastGasp(path string) {
	if r == nil || path == "" {
		return
	}
	ch := make(chan os.Signal, 1)
	stop := make(chan struct{})
	signal.Notify(ch, syscall.SIGTERM, os.Interrupt)
	r.disarm = sync.OnceFunc(func() {
		signal.Stop(ch)
		close(stop)
	})
	go func() {
		var sig os.Signal
		select {
		case sig = <-ch:
		case <-stop:
			return
		}
		if err := r.DumpTo(path); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: last-gasp dump failed: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "telemetry: last-gasp trace written to %s\n", path)
		}
		signal.Stop(ch)
		if s, ok := sig.(syscall.Signal); ok {
			os.Exit(128 + int(s))
		}
		os.Exit(1)
	}()
}

// disarmLastGasp stops the handler ArmLastGasp installed and ends its
// goroutine. Nil-safe and idempotent.
func (r *Recorder) disarmLastGasp() {
	if r != nil && r.disarm != nil {
		r.disarm()
	}
}

// DumpOnPanic is the panic half of the last gasp: call it deferred
// around the run. If the goroutine is panicking it dumps the ring to
// path and re-panics; otherwise it does nothing.
func (r *Recorder) DumpOnPanic(path string) {
	if p := recover(); p != nil {
		if r != nil && path != "" {
			if err := r.DumpTo(path); err == nil {
				fmt.Fprintf(os.Stderr, "telemetry: last-gasp trace written to %s\n", path)
			}
		}
		panic(p)
	}
}
