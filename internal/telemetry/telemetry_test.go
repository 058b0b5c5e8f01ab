package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"superpin/internal/obs"
)

func testRegistry() (*obs.Metrics, *Recorder) {
	m := obs.NewMetrics()
	m.LiveCounter(LiveRetiredIns).Add(2_000_000)
	m.Set(LiveSlicesSpawned, 4)
	m.Set(LiveSlicesRunning, 2)
	m.Set(LiveSlicesMerged, 1)
	m.Add("pin.superblock.ins", 3)
	m.Add("artifact.predecode.hits", 5)
	m.Observe("kernel.quantum_wall_ns", 1200)
	tr := obs.NewRingTracer(8)
	for i := 0; i < 12; i++ {
		tr.Emit(obs.Event{Kind: obs.EvSyscall, Time: uint64(i), PID: 1, CPU: -1, Name: "write"})
	}
	return m, NewRecorder(tr)
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", url, err)
	}
	return resp.StatusCode, body
}

// TestServerEndpoints starts a server on a loopback ephemeral port and
// exercises every endpoint: liveness, both metrics formats, the status
// document, the trace snapshot, and the pprof index.
func TestServerEndpoints(t *testing.T) {
	m, rec := testRegistry()
	srv, err := NewServer("127.0.0.1:0", m, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	if code, body := get(t, base+"/healthz"); code != 200 || string(body) != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	nameRe := regexp.MustCompile(`^[a-z_:][a-z0-9_:]*(\{[^}]*\})? `)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !nameRe.MatchString(line) {
			t.Errorf("/metrics line violates Prometheus grammar: %q", line)
		}
	}
	if !strings.Contains(string(body), "kernel_live_retired_ins 2000000") {
		t.Errorf("/metrics missing live counter:\n%s", body)
	}

	code, body = get(t, base+"/metrics.json")
	var snap obs.Snapshot
	if code != 200 || json.Unmarshal(body, &snap) != nil {
		t.Fatalf("/metrics.json = %d, unparseable: %s", code, body)
	}
	if snap.Counters[LiveRetiredIns] != 2_000_000 {
		t.Errorf("/metrics.json retired = %d", snap.Counters[LiveRetiredIns])
	}

	code, body = get(t, base+"/status")
	var st Status
	if code != 200 || json.Unmarshal(body, &st) != nil {
		t.Fatalf("/status = %d, unparseable: %s", code, body)
	}
	if st.RetiredIns != 2_000_000 || st.SlicesSpawned != 4 || st.SlicesRunning != 2 || st.SlicesMerged != 1 {
		t.Errorf("/status fields: %+v", st)
	}
	if st.GuestMIPS <= 0 {
		t.Errorf("/status guest_mips = %v, want > 0", st.GuestMIPS)
	}
	if st.Pin["pin.superblock.ins"] != 3 || st.Artifact["artifact.predecode.hits"] != 5 {
		t.Errorf("/status namespaces: %+v", st)
	}
	if st.LatencyNS["kernel.quantum_wall_ns"].Count != 1 {
		t.Errorf("/status latency histograms: %+v", st.LatencyNS)
	}
	if st.TraceEvents != 8 || st.TraceDropped != 4 {
		t.Errorf("/status trace accounting: events=%d dropped=%d", st.TraceEvents, st.TraceDropped)
	}

	code, body = get(t, base+"/trace")
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if code != 200 || json.Unmarshal(body, &trace) != nil {
		t.Fatalf("/trace = %d, unparseable: %s", code, body)
	}
	if len(trace.TraceEvents) == 0 {
		t.Errorf("/trace empty")
	}

	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

// TestServerNilRegistry confirms the endpoints degrade gracefully with
// no metrics and no recorder wired in.
func TestServerNilRegistry(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	for _, ep := range []string{"/healthz", "/metrics", "/metrics.json", "/status", "/trace"} {
		if code, _ := get(t, base+ep); code != 200 {
			t.Errorf("%s = %d with nil registry", ep, code)
		}
	}
	_, body := get(t, base+"/trace")
	if !json.Valid(body) {
		t.Errorf("/trace invalid JSON with nil recorder: %s", body)
	}
}

// TestRecorderDump covers the last-gasp artifact: first dump wins,
// output parses as a Chrome trace.
func TestRecorderDump(t *testing.T) {
	_, rec := testRegistry()
	path := filepath.Join(t.TempDir(), "lastgasp.json")
	if err := rec.DumpTo(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("dump unparseable: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Error("dump empty")
	}
	// Second dump is a no-op: the file must survive unchanged even if
	// the ring has since moved on.
	rec.Tracer().Emit(obs.Event{Kind: obs.EvProcExit, Time: 99, PID: 1, CPU: -1})
	if err := rec.DumpTo(path); err != nil {
		t.Fatal(err)
	}
	again, _ := os.ReadFile(path)
	if string(again) != string(data) {
		t.Error("second DumpTo overwrote the first last-gasp artifact")
	}

	var nilRec *Recorder
	if err := nilRec.DumpTo(path); err != nil {
		t.Errorf("nil recorder DumpTo: %v", err)
	}
	nilRec.ArmLastGasp(path)
	defer nilRec.DumpOnPanic(path)
}

// TestStatusMIPSNow verifies the instantaneous rate derives from
// scrape-to-scrape counter deltas.
func TestStatusMIPSNow(t *testing.T) {
	m, rec := testRegistry()
	srv, err := NewServer("127.0.0.1:0", m, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	_, body := get(t, base+"/status")
	var st Status
	json.Unmarshal(body, &st)
	if st.GuestMIPSNow != 0 {
		t.Errorf("first scrape guest_mips_now = %v, want 0", st.GuestMIPSNow)
	}
	m.LiveCounter(LiveRetiredIns).Add(5_000_000)
	_, body = get(t, base+"/status")
	json.Unmarshal(body, &st)
	if st.GuestMIPSNow <= 0 {
		t.Errorf("second scrape guest_mips_now = %v, want > 0", st.GuestMIPSNow)
	}
	fmt.Fprintln(io.Discard, st.GuestMIPSNow)
}

// TestPlaneCloseDisarmsLastGasp: Close stops the last-gasp signal
// handler and ends its goroutine, so a closed plane can neither dump to
// a stale path nor exit the process on SIGTERM, and planes started in
// one process do not pile up handlers.
func TestPlaneCloseDisarmsLastGasp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lastgasp.json")
	start := func() {
		p, err := StartPlane(PlaneOptions{LastGasp: path})
		if err != nil {
			t.Fatal(err)
		}
		p.Close()
		p.Close() // idempotent
	}
	// The first plane also starts os/signal's process-lifetime watcher;
	// the baseline is taken after it.
	start()
	baseline := runtime.NumGoroutine()
	start()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after Close, want the baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
