package artifact

import (
	"sync"
	"testing"

	"superpin/internal/asm"
	"superpin/internal/isa"
	"superpin/internal/obs"
	"superpin/internal/workload"
)

// buildProg returns a small catalog program.
func buildProg(t *testing.T, name string) *asm.Program {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("%s missing from catalog", name)
	}
	prog, err := spec.Build()
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return prog
}

func TestKeyOf(t *testing.T) {
	prog := buildProg(t, "gzip")
	k1 := KeyOf(prog)
	if k1 != KeyOf(prog) {
		t.Fatal("KeyOf is not deterministic")
	}
	if k1 == KeyOf(buildProg(t, "mgrid")) {
		t.Fatal("distinct images share a key")
	}
	// Any byte of the image changes the key.
	mutated := *prog
	mutated.Segments = append([]asm.Segment{}, prog.Segments...)
	data := append([]byte{}, mutated.Segments[0].Data...)
	data[0] ^= 1
	mutated.Segments[0] = asm.Segment{Addr: prog.Segments[0].Addr, Data: data}
	if KeyOf(&mutated) == k1 {
		t.Fatal("mutated image bytes kept the same key")
	}
	// Symbols are part of the key.
	mutated = *prog
	mutated.Symbols = map[string]uint32{"extra": 0x1000}
	for n, a := range prog.Symbols {
		mutated.Symbols[n] = a
	}
	if KeyOf(&mutated) == k1 {
		t.Fatal("symbol table change kept the same key")
	}
	// Line tables are excluded: nothing execution-visible reads them.
	mutated = *prog
	mutated.Lines = map[uint32]int{0x1000: 42}
	if KeyOf(&mutated) != k1 {
		t.Fatal("line table change altered the key")
	}
}

// TestSingleflight hammers one store from many goroutines and asserts
// the singleflight contract: the predecode set computed exactly once,
// every caller handed the same pointer. Run under -race in check.sh.
func TestSingleflight(t *testing.T) {
	prog := buildProg(t, "gzip")
	key := KeyOf(prog)
	s := NewStore()

	const goroutines = 32
	var wg sync.WaitGroup
	pres := make([]any, goroutines)
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			pres[i] = s.Predecode(key, prog)
		}()
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if pres[i] != pres[0] {
			t.Fatalf("goroutine %d got a different PredecodeSet pointer", i)
		}
	}
	st := s.Stats()
	if st.PredecodeComputes != 1 || st.PredecodeHits != goroutines-1 {
		t.Fatalf("computes/hits = %d/%d, want 1/%d", st.PredecodeComputes, st.PredecodeHits, goroutines-1)
	}
}

func TestPublishMetrics(t *testing.T) {
	prog := buildProg(t, "gzip")
	s := NewStore()
	s.Predecode(KeyOf(prog), prog)

	// Nil registry and nil store are no-ops.
	s.PublishMetrics(nil)
	(*Store)(nil).PublishMetrics(nil)

	m := obs.NewMetrics()
	s.PublishMetrics(m)
	gauges := m.Snapshot().Gauges
	if gauges["artifact.predecode.computes"] != 1 {
		t.Fatalf("artifact.predecode.computes = %v, want 1", gauges["artifact.predecode.computes"])
	}
	if _, ok := gauges["artifact.disk.errors"]; !ok {
		t.Fatal("artifact.disk.errors not published")
	}
}

// TestKeyIsolation: distinct images never share artifacts.
func TestKeyIsolation(t *testing.T) {
	a := buildProg(t, "gzip")
	b := buildProg(t, "mgrid")
	s := NewStore()
	if s.Predecode(KeyOf(a), a) == s.Predecode(KeyOf(b), b) {
		t.Fatal("distinct images share a PredecodeSet")
	}
	if st := s.Stats(); st.PredecodeComputes != 2 {
		t.Fatalf("computes = %d, want 2", st.PredecodeComputes)
	}
}

// tiny returns a minimal valid program for cheap disk tests.
func tiny(t *testing.T) *asm.Program {
	t.Helper()
	b := asm.NewBuilder(0x1000)
	b.I(isa.OpADDI, isa.RegSys, isa.RegZero, 1)
	b.I(isa.OpADDI, isa.RegArg0, isa.RegZero, 0)
	b.Syscall()
	return b.MustFinish()
}
