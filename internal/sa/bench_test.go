package sa

import (
	"testing"

	"superpin/internal/asm"
	"superpin/internal/workload"
)

// coldstartImages are the eight programs of the benchmark's coldstart
// workload, at its scale: runs so short that load-time analysis is most
// of the round.
func coldstartImages(b *testing.B) []*asm.Program {
	b.Helper()
	var progs []*asm.Program
	for _, name := range []string{"gcc", "vortex", "fma3d", "eon", "crafty", "perlbmk", "parser", "gap"} {
		spec, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("unknown catalog program %q", name)
		}
		p, err := spec.Scaled(0.02).Build()
		if err != nil {
			b.Fatalf("build %s: %v", name, err)
		}
		progs = append(progs, p)
	}
	return progs
}

// analyzeSink keeps the benchmarked results alive.
var analyzeSink *Analysis

// BenchmarkAnalyze times one analysis of all eight coldstart images per
// op, for the full interprocedural tier and the intraprocedural one.
func BenchmarkAnalyze(b *testing.B) {
	progs := coldstartImages(b)
	for _, tier := range []struct {
		name string
		fn   func(*asm.Program) *Analysis
	}{{"full", Analyze}, {"intra", AnalyzeIntra}} {
		b.Run(tier.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range progs {
					analyzeSink = tier.fn(p)
				}
			}
		})
	}
}
