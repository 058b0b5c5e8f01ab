package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"superpin/internal/mem"
)

func TestDiskStoreCreatesMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "cache")
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatalf("NewDiskStore: %v", err)
	}
	if s.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", s.Dir(), dir)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("cache dir not created: %v", err)
	}
}

func TestDiskStoreRejectsUnusableDir(t *testing.T) {
	// A path through a regular file can never become a directory — this
	// fails for any user, including root.
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDiskStore(file); err == nil {
		t.Fatal("NewDiskStore accepted a regular file as cache dir")
	}
	if _, err := NewDiskStore(filepath.Join(file, "sub")); err == nil {
		t.Fatal("NewDiskStore accepted a path through a regular file")
	}
}

// TestDiskRoundtrip: a second store on the same directory loads the
// predecoded pages from disk instead of recomputing, and the loaded set
// matches the computed one.
func TestDiskRoundtrip(t *testing.T) {
	dir := t.TempDir()
	prog := tiny(t)
	key := KeyOf(prog)

	a, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	pre := a.Predecode(key, prog)
	if st := a.Stats(); st.DiskWrites != 1 || st.DiskHits != 0 {
		t.Fatalf("populate stats = %+v, want 1 write, 0 hits", st)
	}

	b, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	pre2 := b.Predecode(key, prog)
	if st := b.Stats(); st.DiskHits != 1 || st.DiskErrors != 0 || st.PredecodeComputes != 0 {
		t.Fatalf("warm stats = %+v, want 1 disk hit, 0 errors, 0 computes", st)
	}
	if pre2.Pages() != pre.Pages() {
		t.Fatalf("loaded predecode pages = %d, want %d", pre2.Pages(), pre.Pages())
	}
}

// v2Entry returns a cache file in on-disk format version 2, the format
// before the static-analysis and warm-seed kinds were retired: the same
// header layout stamped version 2, around payload.
func v2Entry(k Key, kd kind, payload []byte) []byte {
	buf := []byte(diskMagic)
	buf = binary.LittleEndian.AppendUint16(buf, 2)
	buf = append(buf, byte(kd))
	buf = append(buf, k[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(payload)
	return append(buf, sum[:]...)
}

// TestDiskV2EntryIsAMiss: a cache directory written by format version 2
// — a well-formed predecode entry plus the retired sa (kind 2) and seed
// (kind 3) entries, each under its v2 file name — is a counted miss, not
// an error: the v3 name is absent, the store computes the predecode set
// cold, persists it in the current format, and the next store hydrates
// it from disk.
func TestDiskV2EntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	prog := tiny(t)
	key := KeyOf(prog)
	spans := make([]mem.Span, len(prog.Segments))
	for i, seg := range prog.Segments {
		spans[i] = mem.Span{Addr: seg.Addr, Data: seg.Data}
	}
	for _, e := range []struct {
		name    string
		kd      kind
		payload []byte
	}{
		{"predecode", kindPredecode, mem.EncodePredecodeSet(mem.BuildPredecodeSet(spans))},
		{"sa", 2, []byte("retired static analysis")},
		{"seed", 3, []byte("retired warm seed")},
	} {
		name := filepath.Join(dir, key.String()+"."+e.name+".v2")
		if err := os.WriteFile(name, v2Entry(key, e.kd, e.payload), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cold, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	pre := cold.Predecode(key, prog)
	st := cold.Stats()
	if st.DiskMisses != 1 || st.DiskErrors != 0 || st.DiskHits != 0 || st.PredecodeComputes != 1 {
		t.Fatalf("v2 directory: %+v, want 1 disk miss, 0 errors, 0 hits, 1 compute", st)
	}
	if st.DiskWrites != 1 {
		t.Fatalf("cold compute not persisted in the current format: %+v", st)
	}

	warm, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	pre2 := warm.Predecode(key, prog)
	if st := warm.Stats(); st.DiskHits != 1 || st.DiskErrors != 0 || st.PredecodeComputes != 0 {
		t.Fatalf("rehydrated store: %+v, want 1 disk hit, 0 errors, 0 computes", st)
	}
	if pre2.Pages() != pre.Pages() {
		t.Fatalf("rehydrated predecode pages = %d, want %d", pre2.Pages(), pre.Pages())
	}
}

// TestDiskCorruptCorpus seeds one corruption per entry: every damaged
// cache file must fall back silently to the cold path — identical
// results, a counted disk error, no crash, and never a poisoned
// artifact.
func TestDiskCorruptCorpus(t *testing.T) {
	prog := tiny(t)
	key := KeyOf(prog)

	// Reference artifacts from a clean store.
	ref, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	refPre := ref.Predecode(key, prog)

	corruptions := []struct {
		name    string
		mutate  func(path string) error
		recover bool // expect DiskErrors (false: counted as miss)
	}{
		{"truncated to header", func(p string) error {
			return os.Truncate(p, headerSize)
		}, true},
		{"truncated mid-payload", func(p string) error {
			fi, err := os.Stat(p)
			if err != nil {
				return err
			}
			return os.Truncate(p, fi.Size()-7)
		}, true},
		{"payload bit flip", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[headerSize] ^= 0x40
			return os.WriteFile(p, data, 0o644)
		}, true},
		{"wrong magic", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			copy(data, "NOPE")
			return os.WriteFile(p, data, 0o644)
		}, true},
		{"stale format version", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[4], data[5] = 0xFF, 0xFF
			return os.WriteFile(p, data, 0o644)
		}, true},
		{"key mismatch (misfiled entry)", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[7] ^= 0xFF
			return os.WriteFile(p, data, 0o644)
		}, true},
		{"empty file", func(p string) error {
			return os.WriteFile(p, nil, 0o644)
		}, true},
		{"garbage file", func(p string) error {
			return os.WriteFile(p, []byte("not a cache entry at all"), 0o644)
		}, true},
		{"deleted", os.Remove, false},
	}

	for _, tc := range corruptions {
		t.Run(kindPredecode.String()+"/"+tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			w.Predecode(key, prog)

			if err := tc.mutate(w.entryPath(key, kindPredecode)); err != nil {
				t.Fatalf("mutate: %v", err)
			}

			v, err := NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			pre := v.Predecode(key, prog)
			if pre.Pages() != refPre.Pages() {
				t.Fatalf("fallback predecode pages = %d, want %d", pre.Pages(), refPre.Pages())
			}
			st := v.Stats()
			if tc.recover && st.DiskErrors == 0 {
				t.Fatalf("corruption was not counted: %+v", st)
			}
			if !tc.recover && st.DiskMisses == 0 {
				t.Fatalf("deleted entry not counted as miss: %+v", st)
			}
		})
	}
}
