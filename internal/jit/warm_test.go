package jit

import (
	"reflect"
	"testing"
)

func TestWarmSeedMergeCommutative(t *testing.T) {
	a := NewWarmSeed()
	a.record(0x100, WarmEntry{Execs: 10, HotExit: 0x200, HotCount: 7})
	a.record(0x300, WarmEntry{Execs: 1})
	b := NewWarmSeed()
	b.record(0x100, WarmEntry{Execs: 5, HotExit: 0x180, HotCount: 7})
	b.record(0x400, WarmEntry{Execs: 40, HotExit: 0x100, HotCount: 39})

	ab := NewWarmSeed()
	ab.Merge(a)
	ab.Merge(b)
	ba := NewWarmSeed()
	ba.Merge(b)
	ba.Merge(a)
	if !reflect.DeepEqual(ab.Entries, ba.Entries) {
		t.Fatalf("merge is not commutative:\n a+b=%v\n b+a=%v", ab.Entries, ba.Entries)
	}
	got := ab.Entries[0x100]
	want := WarmEntry{Execs: 15, HotExit: 0x180, HotCount: 7}
	if got != want {
		t.Fatalf("merged 0x100 = %+v, want %+v (counters sum, exit ties break low)", got, want)
	}
	if n := ab.Len(); n != 3 {
		t.Fatalf("Len = %d, want 3", n)
	}
}

func TestWarmSeedNilSafe(t *testing.T) {
	var w *WarmSeed
	if w.Len() != 0 {
		t.Fatal("nil Len != 0")
	}
	if _, ok := w.Lookup(1); ok {
		t.Fatal("nil Lookup found an entry")
	}
	s := NewWarmSeed()
	s.Merge(nil)
	if s.Len() != 0 {
		t.Fatal("merge of nil added entries")
	}
}

func TestWarmSeedEncodeDecode(t *testing.T) {
	w := NewWarmSeed()
	w.record(0x2000, WarmEntry{Execs: 123, HotExit: 0x2040, HotCount: 99})
	w.record(0x1000, WarmEntry{Execs: 1})
	blob := EncodeWarmSeed(w)
	// A count header and two 24-byte records: pc, Execs, HotExit, HotCount.
	if len(blob) != 4+2*24 {
		t.Fatalf("encoded seed = %d bytes, want %d", len(blob), 4+2*24)
	}
	// Deterministic bytes regardless of map order: re-encode matches.
	if got := EncodeWarmSeed(w); !reflect.DeepEqual(got, blob) {
		t.Fatal("encoding is not deterministic")
	}
	dec, err := DecodeWarmSeed(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(dec.Entries, w.Entries) {
		t.Fatalf("roundtrip mismatch: %v vs %v", dec.Entries, w.Entries)
	}
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"empty", nil},
		{"truncated", blob[:len(blob)-3]},
		{"trailing garbage", append(append([]byte{}, blob...), 1, 2)},
	} {
		if _, err := DecodeWarmSeed(tc.blob); err == nil {
			t.Errorf("%s: decode succeeded, want error", tc.name)
		}
	}
	// Empty seed roundtrips to empty.
	dec, err = DecodeWarmSeed(EncodeWarmSeed(NewWarmSeed()))
	if err != nil || dec.Len() != 0 {
		t.Fatalf("empty roundtrip: %v len=%d", err, dec.Len())
	}
}
