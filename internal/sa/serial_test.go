package sa

import (
	"reflect"
	"testing"

	"superpin/internal/asm"
	"superpin/internal/isa"
	"superpin/internal/workload"
)

// stripProg returns a shallow copy of a with the prog pointer cleared,
// so DeepEqual compares only the derived tables (Decode is handed the
// same *Program value in production but tests may rebuild it).
func stripProg(a *Analysis) Analysis {
	c := *a
	c.prog = nil
	return c
}

func TestSerialRoundtripCatalog(t *testing.T) {
	for _, spec := range workload.Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			prog, err := spec.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			want := Analyze(prog)
			got, err := Decode(want.Encode(), prog)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(stripProg(want), stripProg(got)) {
				t.Fatalf("roundtrip is not identical")
			}
		})
	}
}

// TestSerialRoundtripDiagnostics covers an image with verifier findings:
// the diagnostics must survive the roundtrip so a cached analysis fails
// Err() exactly like a fresh one.
func TestSerialRoundtripDiagnostics(t *testing.T) {
	b := asm.NewBuilder(0x1000)
	b.I(isa.OpADDI, 10, 11, 0) // reads r11, never written: uninit-read warning
	b.Word(0xFFFFFFFF)         // undecodable word on the fall-through path
	prog := b.MustFinish()
	want := Analyze(prog)
	if len(want.diags) == 0 {
		t.Fatal("fixture produced no diagnostics")
	}
	got, err := Decode(want.Encode(), prog)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(stripProg(want), stripProg(got)) {
		t.Fatalf("roundtrip is not identical")
	}
	if (want.Err() == nil) != (got.Err() == nil) {
		t.Fatalf("Err() disagrees after roundtrip: %v vs %v", want.Err(), got.Err())
	}
}

// TestSerialDecodeRejectsCorrupt seeds one corruption per entry, corpus
// style: every corrupted payload must produce a decode error (cold-path
// fallback), never a panic or a silently wrong Analysis.
func TestSerialDecodeRejectsCorrupt(t *testing.T) {
	spec, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip missing from catalog")
	}
	prog, err := spec.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	blob := Analyze(prog).Encode()

	other := asm.NewBuilder(0x1000)
	other.I(isa.OpADDI, isa.RegSys, isa.RegZero, 1)
	other.Syscall()
	otherProg := other.MustFinish()

	mutate := func(off int, v byte) []byte {
		c := append([]byte{}, blob...)
		c[off] = v
		return c
	}
	cases := []struct {
		name string
		blob []byte
		prog *asm.Program
	}{
		{"empty", nil, prog},
		{"truncated header", blob[:2], prog},
		{"truncated mid-payload", blob[:len(blob)/2], prog},
		{"trailing garbage", append(append([]byte{}, blob...), 0xAA), prog},
		{"region count corrupted", mutate(0, 0xFF), prog},
		{"region addr corrupted", mutate(4, ^blob[4]), prog},
		{"wrong program", blob, otherProg},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.blob, tc.prog); err == nil {
				t.Fatalf("decode accepted a corrupt payload")
			}
		})
	}
	if _, err := Decode(blob, nil); err == nil {
		t.Fatal("decode accepted a nil program")
	}
}

// TestSerialDecodeRejectsStaleVersion pins the version-bump contract:
// payloads written by an older encoder must fail decode deterministically
// (the artifact store then falls back to a cold analysis) rather than
// being misparsed as current-format bytes.
func TestSerialDecodeRejectsStaleVersion(t *testing.T) {
	spec, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip missing from catalog")
	}
	prog, err := spec.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	blob := Analyze(prog).Encode()

	// The v1 format had no header: its first word was the region count.
	// A v1 payload therefore presents its region count where later
	// versions expect the magic.
	headerless := blob[8:]
	if _, err := Decode(headerless, prog); err == nil {
		t.Fatal("decode accepted a headerless v1 payload")
	}

	// A payload from a future (or merely different) version must also
	// fall back cold, even with the magic intact.
	future := append([]byte{}, blob...)
	future[4] = byte(serVersion + 1)
	if _, err := Decode(future, prog); err == nil {
		t.Fatal("decode accepted a payload with a bumped version")
	}
}
