package telemetry

import (
	"fmt"
	"io"
	"os"

	"superpin/internal/obs"
)

// DefaultFlightCap is the default flight-recorder ring capacity (events)
// when a CLI enables the telemetry plane without choosing one.
const DefaultFlightCap = 1 << 16

// PlaneOptions configures StartPlane, the shared CLI wiring for the
// telemetry plane.
type PlaneOptions struct {
	// ServeAddr, when non-empty, starts the HTTP server on that address
	// (host:port; ":0" or "127.0.0.1:0" picks a free port).
	ServeAddr string
	// LastGasp, when non-empty, arms the SIGTERM handler that dumps the
	// flight recorder to this path; pair with a deferred
	// Recorder.DumpOnPanic for the panic half.
	LastGasp string
	// FlightCap is the ring capacity used when the plane has to create
	// its own tracer (<= 0 means DefaultFlightCap).
	FlightCap int
	// Metrics and Tracer, when non-nil, are adopted instead of created —
	// the CLI's -metrics / -trace wiring stays the source of truth.
	Metrics *obs.Metrics
	Tracer  *obs.Tracer
	// Log receives the one-line "serving on" announcement (nil =
	// os.Stderr). Scripts scan it for the resolved port.
	Log io.Writer
}

// Plane bundles a CLI invocation's telemetry: the metrics registry, the
// flight-recorder tracer, the recorder around it, and the HTTP server.
// Fields are nil when the corresponding piece is off, preserving the obs
// nil-default zero-cost invariant end to end.
type Plane struct {
	Metrics  *obs.Metrics
	Tracer   *obs.Tracer
	Recorder *Recorder
	Server   *Server
	// LastGasp echoes PlaneOptions.LastGasp for the CLI's deferred
	// Recorder.DumpOnPanic call.
	LastGasp string
}

// StartPlane assembles the telemetry plane. With neither a serve address
// nor a last-gasp path it returns an inert plane that just echoes the
// caller's registry and tracer (both may be nil — nothing is created, so
// a plain run stays telemetry-free). When active it fills in whatever is
// missing: a registry so the endpoints have data, a bounded ring tracer
// as the flight recorder, the recorder, the armed signal handler, and
// the server.
func StartPlane(o PlaneOptions) (*Plane, error) {
	p := &Plane{Metrics: o.Metrics, Tracer: o.Tracer, LastGasp: o.LastGasp}
	if o.ServeAddr == "" && o.LastGasp == "" {
		return p, nil
	}
	if p.Metrics == nil {
		p.Metrics = obs.NewMetrics()
	}
	if p.Tracer == nil {
		cap := o.FlightCap
		if cap <= 0 {
			cap = DefaultFlightCap
		}
		p.Tracer = obs.NewRingTracer(cap)
	}
	p.Recorder = NewRecorder(p.Tracer)
	p.Recorder.ArmLastGasp(o.LastGasp)
	if o.ServeAddr != "" {
		srv, err := NewServer(o.ServeAddr, p.Metrics, p.Recorder)
		if err != nil {
			return nil, err
		}
		p.Server = srv
		logw := o.Log
		if logw == nil {
			logw = os.Stderr
		}
		fmt.Fprintf(logw, "telemetry: serving on http://%s\n", srv.Addr())
	}
	return p, nil
}

// Close disarms the last-gasp signal handler and stops the HTTP server
// (nil-safe; inert planes have neither).
func (p *Plane) Close() error {
	if p == nil {
		return nil
	}
	p.Recorder.disarmLastGasp()
	return p.Server.Close()
}
