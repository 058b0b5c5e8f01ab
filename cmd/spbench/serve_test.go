package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// serveRe matches the telemetry plane's startup announcement.
var serveRe = regexp.MustCompile(`telemetry: serving on http://(\S+)`)

// promLineRe is the Prometheus text-exposition sample-line grammar the
// /metrics endpoint must honor (metric name, optional labels, a space).
var promLineRe = regexp.MustCompile(`^[a-z_:][a-z0-9_:]*(\{[^}]*\})? `)

// announceWriter is run's stderr: it forwards the first announced
// telemetry address to addr and keeps everything written for failure
// messages.
type announceWriter struct {
	addr chan string

	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *announceWriter) Write(p []byte) (int, error) {
	if m := serveRe.FindSubmatch(p); m != nil {
		select {
		case w.addr <- string(m[1]):
		default:
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *announceWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestServeLiveTelemetry runs a figure with -serve in process and polls
// every telemetry endpoint while the run is still executing: /healthz
// answers ok, /metrics is Prometheus text, /metrics.json and /status are
// JSON with live retired instructions and positive MIPS, and /trace is a
// Chrome trace with at least one event. A poll round counts only if it
// completes before run returns. Once run returns, the port must be
// closed.
func TestServeLiveTelemetry(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	stderr := &announceWriter{addr: make(chan string, 1)}
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		runErr = run([]string{"-exp", "fig3", "-scale", "1", "-benchmarks", "gzip,gcc,mgrid",
			"-serve", "127.0.0.1:0"}, io.Discard, stderr)
	}()
	// Whatever the assertions decide, the run must have returned (and
	// closed its server) before the test does.
	defer func() { <-done }()

	var addr string
	select {
	case addr = <-stderr.addr:
	case <-done:
		t.Fatalf("run returned (%v) before announcing a telemetry address; stderr:\n%s", runErr, stderr)
	case <-ctx.Done():
		t.Fatalf("no telemetry announcement: %v", ctx.Err())
	}
	base := "http://" + addr
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()

	var lastErr error
	for verified := false; !verified; {
		select {
		case <-done:
			t.Fatalf("run returned (%v) before a poll completed mid-run; last poll error: %v", runErr, lastErr)
		case <-ctx.Done():
			t.Fatalf("no successful poll of %s: %v; last poll error: %v", base, ctx.Err(), lastErr)
		default:
		}
		if lastErr = pollOnce(ctx, client, base); lastErr != nil {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		select {
		case <-done:
			t.Fatalf("run returned (%v) during the verifying poll, so it does not prove live data", runErr)
		default:
			verified = true
		}
	}

	select {
	case <-done:
	case <-ctx.Done():
		t.Fatalf("run did not return: %v", ctx.Err())
	}
	if runErr != nil {
		t.Fatalf("run failed after a successful mid-run poll: %v", runErr)
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatalf("%s still accepts connections after run returned", addr)
	}
}

// pollOnce exercises every endpoint and validates the responses.
func pollOnce(ctx context.Context, client *http.Client, base string) error {
	body, err := get(ctx, client, base+"/healthz")
	if err != nil {
		return err
	}
	if string(body) != "ok\n" {
		return fmt.Errorf("/healthz = %q", body)
	}

	body, err = get(ctx, client, base+"/metrics")
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLineRe.MatchString(line) {
			return fmt.Errorf("/metrics line violates Prometheus grammar: %q", line)
		}
	}

	body, err = get(ctx, client, base+"/metrics.json")
	if err != nil {
		return err
	}
	if !json.Valid(body) {
		return fmt.Errorf("/metrics.json is not valid JSON")
	}

	body, err = get(ctx, client, base+"/status")
	if err != nil {
		return err
	}
	var st struct {
		RetiredIns uint64  `json:"retired_ins"`
		GuestMIPS  float64 `json:"guest_mips"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("/status unparseable: %w", err)
	}
	if st.RetiredIns == 0 {
		return fmt.Errorf("/status retired_ins still 0")
	}
	if st.GuestMIPS <= 0 {
		return fmt.Errorf("/status guest_mips = %v", st.GuestMIPS)
	}

	body, err = get(ctx, client, base+"/trace")
	if err != nil {
		return err
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &trace); err != nil {
		return fmt.Errorf("/trace unparseable: %w", err)
	}
	if len(trace.TraceEvents) == 0 {
		return fmt.Errorf("/trace has no events yet")
	}
	return nil
}

func get(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// TestServeFlagOverridesEnv: $SUPERPIN_SERVE is only -serve's default,
// so an explicit -serve "" keeps the plane off.
func TestServeFlagOverridesEnv(t *testing.T) {
	t.Setenv("SUPERPIN_SERVE", "127.0.0.1:0")
	args := []string{"-exp", "sigstats", "-scale", "0.02", "-benchmarks", "gzip"}
	for _, tc := range []struct {
		extra []string
		serve bool
	}{
		{nil, true},
		{[]string{"-serve", ""}, false},
	} {
		var stderr bytes.Buffer
		if err := run(append(args, tc.extra...), io.Discard, &stderr); err != nil {
			t.Fatal(err)
		}
		if got := serveRe.MatchString(stderr.String()); got != tc.serve {
			t.Errorf("flags %q: served = %v, want %v; stderr:\n%s", tc.extra, got, tc.serve, stderr.String())
		}
	}
}
