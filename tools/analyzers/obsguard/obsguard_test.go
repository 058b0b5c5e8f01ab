package obsguard

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGuardCases runs the analyzer over the annotated corpus and
// demands an exact match: a finding on every `// want` line and nothing
// anywhere else.
func TestGuardCases(t *testing.T) {
	dir := filepath.Join("testdata", "src", "guardcases")
	findings, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := wantLines(t, filepath.Join(dir, "guardcases.go"))
	got := make(map[int]bool)
	for _, f := range findings {
		if got[f.Pos.Line] {
			t.Errorf("line %d: duplicate finding", f.Pos.Line)
		}
		got[f.Pos.Line] = true
		if !want[f.Pos.Line] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for line := range want {
		if !got[line] {
			t.Errorf("line %d: expected a finding, got none", line)
		}
	}
}

// wantLines returns the line numbers carrying a `// want` marker.
func wantLines(t *testing.T, path string) map[int]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[int]bool)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if strings.Contains(sc.Text(), "// want") {
			want[line] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestEnginePackagesClean pins the invariant over the packages that
// host the hot emission sites: any unguarded call added there turns
// this red. This test is the gate: the pass has no CLI.
func TestEnginePackagesClean(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	// One Checker for the whole list: the packages share their imports.
	c := NewChecker()
	for _, pkg := range []string{"internal/pin", "internal/cpu", "internal/kernel", "internal/core",
		"internal/artifact", "internal/jit", "internal/telemetry"} {
		pkg := pkg
		t.Run(pkg, func(t *testing.T) {
			findings, err := c.CheckDir(filepath.Join(root, pkg))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range findings {
				t.Errorf("%s", f)
			}
		})
	}
}
