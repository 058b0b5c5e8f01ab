// Command telsmoke is the check.sh smoke test for the live telemetry
// plane: it runs a command (typically spbench with -serve 127.0.0.1:0),
// scans the command's stderr for the "telemetry: serving on http://ADDR"
// announcement, and polls every endpoint while the run is still
// executing. It fails unless, mid-run, all endpoints served valid live
// data: /healthz answered ok, /metrics parsed as Prometheus text
// exposition, /metrics.json and /status parsed as JSON with a non-zero
// retired-instruction count, and /trace parsed as a Chrome trace with at
// least one event. The wrapped command must also exit cleanly.
//
// The command runs in its own process group, and telsmoke kills the whole
// group before it returns, so a server the command started (go run's
// compiled child, say) never outlives a failed smoke.
//
//	go run ./tools/cmd/telsmoke -- \
//	    go run ./cmd/spbench -exp fig3 -scale 1 -benchmarks gzip,gcc,mgrid -serve 127.0.0.1:0
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"time"
)

// announceTimeout bounds the wait for the serving line, and pollTimeout
// the mid-run polling that follows it. Variables so tests can shorten
// them.
var (
	announceTimeout = 30 * time.Second
	pollTimeout     = 60 * time.Second
)

// client bounds each endpoint request, so one unanswered poll cannot
// outlast pollTimeout by more than this.
var client = &http.Client{Timeout: 5 * time.Second}

// serveRe matches the telemetry plane's startup announcement.
var serveRe = regexp.MustCompile(`telemetry: serving on http://(\S+)`)

// promLineRe is the Prometheus text-exposition sample-line grammar the
// /metrics endpoint must honor (metric name, optional labels, a space).
var promLineRe = regexp.MustCompile(`^[a-z_:][a-z0-9_:]*(\{[^}]*\})? `)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "telsmoke:", err)
		os.Exit(1)
	}
	fmt.Println("telsmoke: ok")
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "--" {
		args = args[1:]
	}
	if len(args) == 0 {
		return fmt.Errorf("usage: telsmoke -- <command serving telemetry> [args...]")
	}

	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdout = io.Discard
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	// The group id is the leader's pid. Killing the group on the way out
	// reaches everything the command started; on a clean exit the group
	// is already empty and the kill is a no-op.
	pgid := cmd.Process.Pid
	defer syscall.Kill(-pgid, syscall.SIGKILL)

	// Scan stderr for the serving line, echoing everything else through
	// so failures of the wrapped command stay diagnosable.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := serveRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
				continue
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}()

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		return fmt.Errorf("command exited (%v) before announcing a telemetry address", err)
	case <-time.After(announceTimeout):
		return fmt.Errorf("no 'telemetry: serving on' line within %v", announceTimeout)
	}
	base := "http://" + addr

	// Poll until one round succeeds mid-run. The round only counts if
	// the wrapped command is still running when it completes — that is
	// what makes this a *live* telemetry test.
	var lastErr error
	deadline := time.Now().Add(pollTimeout)
	verified := false
	for !verified {
		select {
		case err := <-done:
			if lastErr == nil {
				lastErr = fmt.Errorf("run finished before any poll completed (workload too small?)")
			}
			return fmt.Errorf("no successful mid-run poll before exit (%v): %w", err, lastErr)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no successful poll of %s within %v: %w", base, pollTimeout, lastErr)
		}
		if err := pollOnce(base); err != nil {
			lastErr = err
			time.Sleep(20 * time.Millisecond)
			continue
		}
		select {
		case err := <-done:
			// The run ended while we polled; without proof the data was
			// served mid-run, keep this conservative and fail.
			return fmt.Errorf("run exited (%v) during the verifying poll; rerun with a larger workload", err)
		default:
			verified = true
		}
	}

	if err := <-done; err != nil {
		return fmt.Errorf("command failed after a successful mid-run poll: %w", err)
	}
	return nil
}

// pollOnce exercises every endpoint and validates the responses.
func pollOnce(base string) error {
	body, err := get(base + "/healthz")
	if err != nil {
		return err
	}
	if string(body) != "ok\n" {
		return fmt.Errorf("/healthz = %q", body)
	}

	body, err = get(base + "/metrics")
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

	body, err = get(base + "/metrics.json")
	if err != nil {
		return err
	}
	if !json.Valid(body) {
		return fmt.Errorf("/metrics.json is not valid JSON")
	}

	body, err = get(base + "/status")
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

	body, err = get(base + "/trace")
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

func get(url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
