package sa

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"superpin/internal/asm"
	"superpin/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/analyze_golden.txt from the current Analyze")

// goldenScales and goldenSeeds span the catalog the benchmark runs: a
// non-zero seed renames the spec with the benchmark's `.s<N>` suffix,
// which reseeds the generator's code shape at the same calibration.
var (
	goldenScales = []float64{0.02, 0.25}
	goldenSeeds  = []uint64{0, 1, 2}
)

// goldenPrograms builds every catalog program at every golden scale and
// seed, in a fixed order.
func goldenPrograms(t testing.TB) (names []string, progs []*asm.Program) {
	t.Helper()
	for _, spec := range workload.Catalog() {
		for _, scale := range goldenScales {
			for _, seed := range goldenSeeds {
				s := spec.Scaled(scale)
				if seed != 0 {
					s.Name = fmt.Sprintf("%s.s%d", s.Name, seed)
				}
				p, err := s.Build()
				if err != nil {
					t.Fatalf("build %s at scale %v: %v", s.Name, scale, err)
				}
				names = append(names, fmt.Sprintf("%s@%v", s.Name, scale))
				progs = append(progs, p)
			}
		}
	}
	return names, progs
}

// goldenRecord is one program's line: the sha256 of Encode (every
// block, edge, dominator and diagnostic), and the count and sha256 of
// the Diags() strings.
func goldenRecord(name string, a *Analysis) string {
	diags := a.Diags()
	h := sha256.New()
	for _, d := range diags {
		fmt.Fprintln(h, d)
	}
	return fmt.Sprintf("%s encode=%x diags=%d/%x\n",
		name, sha256.Sum256(a.Encode()), len(diags), h.Sum(nil))
}

// TestAnalyzeGolden pins Analyze's complete output over the catalog.
// Any change to what the analysis computes moves a line here; speed
// work on internal/sa must leave the file untouched. Regenerate with
// `go test ./internal/sa -run TestAnalyzeGolden -update` only when the
// analysis is meant to change.
func TestAnalyzeGolden(t *testing.T) {
	names, progs := goldenPrograms(t)
	var sb strings.Builder
	for i, p := range progs {
		sb.WriteString(goldenRecord(names[i], Analyze(p)))
	}
	got := sb.String()
	path := filepath.Join("testdata", "analyze_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantB, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want := string(wantB)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, golden has %d", len(gl), len(wl))
}
