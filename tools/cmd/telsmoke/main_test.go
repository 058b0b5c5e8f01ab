package main

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRunKillsProcessGroup wraps a command that backgrounds a sleep and
// announces an address nothing listens on. run must give up within its
// poll deadline and take the backgrounded sleep down with the command.
func TestRunKillsProcessGroup(t *testing.T) {
	prevPoll := pollTimeout
	pollTimeout = 300 * time.Millisecond
	t.Cleanup(func() { pollTimeout = prevPoll })

	pidFile := filepath.Join(t.TempDir(), "sleep.pid")
	script := `sleep 30 & echo $! > "$0"; echo "telemetry: serving on http://127.0.0.1:1" >&2; wait`

	start := time.Now()
	errc := make(chan error, 1)
	go func() { errc <- run([]string{"--", "sh", "-c", script, pidFile}) }()

	pid := readPID(t, pidFile)
	// Whatever the assertions below decide, the sleep must not survive
	// the test.
	t.Cleanup(func() { _ = syscall.Kill(pid, syscall.SIGKILL) })

	var err error
	select {
	case err = <-errc:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return within 10s of a 300ms poll deadline")
	}
	if err == nil {
		t.Fatal("run succeeded against an address nothing serves")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("run took %v to give up, want about the 300ms poll deadline", elapsed)
	}
	if !strings.Contains(err.Error(), "no successful poll") {
		t.Errorf("run error = %v, want the poll deadline", err)
	}

	// The kill is delivered before run returns; the orphaned sleep then
	// waits for init to reap it, which may take a moment.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if gone(pid) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backgrounded sleep (pid %d) still exists after run returned", pid)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// gone reports whether pid no longer runs: it no longer exists
// (ESRCH), or it is a zombie awaiting its reaper.
func gone(pid int) bool {
	if errors.Is(syscall.Kill(pid, 0), syscall.ESRCH) {
		return true
	}
	stat, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return false
	}
	// The state letter follows the parenthesised command name.
	_, rest, ok := strings.Cut(string(stat), ") ")
	return ok && strings.HasPrefix(rest, "Z")
}

// readPID waits for the wrapped shell to record its sleep's PID.
func readPID(t *testing.T, path string) int {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		b, err := os.ReadFile(path)
		if err != nil || !strings.HasSuffix(string(b), "\n") {
			continue
		}
		pid, err := strconv.Atoi(strings.TrimSpace(string(b)))
		if err != nil {
			t.Fatalf("pid file %q: %v", b, err)
		}
		return pid
	}
	t.Fatal("wrapped command never recorded its sleep's PID")
	return 0
}
