package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"superpin/internal/obs"
)

// LiveRetiredIns is the registry name of the kernel-maintained live
// counter of retired guest instructions; /status derives guest-MIPS
// from it.
const LiveRetiredIns = "kernel.live.retired_ins"

// Gauge names the core engine keeps current during a SuperPin run;
// /status republishes them as the per-slice state summary.
const (
	LiveSlicesSpawned = "core.live.slices_spawned"
	LiveSlicesRunning = "core.live.slices_running"
	LiveSlicesMerged  = "core.live.slices_merged"
)

// Status is the /status document: a point-in-time, host-side view of
// the run assembled entirely from the metrics registry and the flight
// recorder — reading it never perturbs virtual state.
type Status struct {
	UptimeSec    float64 `json:"uptime_sec"`
	RetiredIns   uint64  `json:"retired_ins"`
	GuestMIPS    float64 `json:"guest_mips"`     // retired/uptime, cumulative
	GuestMIPSNow float64 `json:"guest_mips_now"` // since the previous /status scrape

	SlicesSpawned uint64 `json:"slices_spawned"`
	SlicesRunning uint64 `json:"slices_running"`
	SlicesMerged  uint64 `json:"slices_merged"`

	// Pin and Artifact are the pin.* and artifact.* counter namespaces
	// (live counters folded in).
	Pin      map[string]uint64 `json:"pin,omitempty"`
	Artifact map[string]uint64 `json:"artifact,omitempty"`

	// LatencyNS is every histogram in the registry with extracted
	// quantiles — the host-phase wall-clock attribution (quantum,
	// slice, dispatch batch, cache fetch).
	LatencyNS map[string]obs.HistSnapshot `json:"latency_ns,omitempty"`

	TraceEvents  int    `json:"trace_events"`
	TraceDropped uint64 `json:"trace_dropped"`
}

// Server serves the live telemetry endpoints over HTTP:
//
//	/metrics       Prometheus text exposition of the obs registry
//	/metrics.json  the registry's JSON snapshot (superpin -metrics shape)
//	/status        Status document (live guest-MIPS, slice states, ...)
//	/trace         Perfetto/Chrome-trace snapshot of the flight recorder
//	/healthz       liveness probe
//	/debug/pprof/  net/http/pprof host profiles
//
// The listener binds immediately in NewServer (":0" picks a free port;
// Addr reports it) and requests are served on a background goroutine
// until Close.
type Server struct {
	m   *obs.Metrics
	rec *Recorder
	srv *http.Server
	ln  net.Listener

	start time.Time

	mu          sync.Mutex
	lastScrape  time.Time
	lastRetired uint64
}

// NewServer listens on addr and starts serving the telemetry endpoints
// for registry m and flight recorder rec (either may be nil; endpoints
// degrade to empty documents).
func NewServer(addr string, m *obs.Metrics, rec *Recorder) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{m: m, rec: rec, ln: ln, start: time.Now()}

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.m.WriteProm(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.m.WriteJSON(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.status())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if s.rec != nil {
			s.rec.WriteTrace(w)
			return
		}
		obs.WriteChromeTrace(w, nil)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address (host:port, with the real port
// when addr was ":0").
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// status assembles the /status document from the registry snapshot and
// the recorder, computing cumulative and instantaneous guest-MIPS from
// the live retired-instruction counter and the host wall clock.
func (s *Server) status() Status {
	now := time.Now()
	snap := s.m.Snapshot()
	st := Status{
		UptimeSec:  now.Sub(s.start).Seconds(),
		RetiredIns: snap.Counters[LiveRetiredIns],
	}
	if st.UptimeSec > 0 {
		st.GuestMIPS = float64(st.RetiredIns) / st.UptimeSec / 1e6
	}
	s.mu.Lock()
	if !s.lastScrape.IsZero() {
		if dt := now.Sub(s.lastScrape).Seconds(); dt > 0 && st.RetiredIns >= s.lastRetired {
			st.GuestMIPSNow = float64(st.RetiredIns-s.lastRetired) / dt / 1e6
		}
	}
	s.lastScrape = now
	s.lastRetired = st.RetiredIns
	s.mu.Unlock()

	st.SlicesSpawned = uint64(snap.Gauges[LiveSlicesSpawned])
	st.SlicesRunning = uint64(snap.Gauges[LiveSlicesRunning])
	st.SlicesMerged = uint64(snap.Gauges[LiveSlicesMerged])

	// The pin.* and artifact.* namespaces mix counters (live engine
	// totals) and gauges (idempotent per-run publishes); /status folds
	// both so the view works whichever way a producer registered.
	classify := func(k string, v uint64) {
		switch {
		case strings.HasPrefix(k, "pin."):
			if st.Pin == nil {
				st.Pin = map[string]uint64{}
			}
			st.Pin[k] = v
		case strings.HasPrefix(k, "artifact."):
			if st.Artifact == nil {
				st.Artifact = map[string]uint64{}
			}
			st.Artifact[k] = v
		}
	}
	for k, v := range snap.Gauges {
		classify(k, uint64(v))
	}
	for k, v := range snap.Counters {
		classify(k, v)
	}
	st.LatencyNS = snap.Hists

	st.TraceEvents = s.rec.Tracer().Len()
	st.TraceDropped = s.rec.Dropped()
	return st
}
