// Package artifact is the content-addressed artifact store: host-side
// derived state that is a pure function of a program image — today the
// predecoded page tables of internal/mem — cached under the image's
// content hash and shared across executions.
//
// Layer 1 is an in-process cache with singleflight semantics: any number
// of concurrent executions of the same image (spbench -j workers, future
// fleet-mode jobs) compute each artifact exactly once and share the
// immutable result. Layer 2, enabled by constructing the store with
// NewDiskStore, persists artifacts across processes with versioned,
// checksummed, atomically-written files; a missing, corrupt or stale
// entry silently falls back to the in-process cold path.
//
// Everything cached here steers host-side execution only: predecode
// adoption verifies page bytes before installing views, so virtual
// results are byte-identical with the store attached, warm or cold
// (`spbench -exp diff`'s warm and disk-warm arms prove exactly that).
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"

	"superpin/internal/asm"
	"superpin/internal/mem"
	"superpin/internal/obs"
)

// Key is the content hash of a program image.
type Key [sha256.Size]byte

// String returns the key in hex, as used in cache file names.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyOf derives the content key of a program image: a SHA-256 over the
// entry point, every segment (address and bytes, in image order) and the
// symbol table sorted by name. Symbols are part of the key so that
// artifacts derived from them can never be shared between images that
// differ only in symbols; source line tables are excluded because
// nothing execution-visible reads them.
func KeyOf(p *asm.Program) Key {
	h := sha256.New()
	var w [8]byte
	binary.LittleEndian.PutUint32(w[:4], p.Entry)
	h.Write(w[:4])
	binary.LittleEndian.PutUint32(w[:4], uint32(len(p.Segments)))
	h.Write(w[:4])
	for _, s := range p.Segments {
		binary.LittleEndian.PutUint32(w[:4], s.Addr)
		binary.LittleEndian.PutUint32(w[4:], uint32(len(s.Data)))
		h.Write(w[:])
		h.Write(s.Data)
	}
	names := make([]string, 0, len(p.Symbols))
	for name := range p.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		binary.LittleEndian.PutUint32(w[:4], uint32(len(name)))
		h.Write(w[:4])
		h.Write([]byte(name))
		binary.LittleEndian.PutUint32(w[:4], p.Symbols[name])
		h.Write(w[:4])
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Stats is a snapshot of the store's counters. PredecodeHits and
// PredecodeComputes partition the Predecode calls: every call either
// found the set without building it — already in process, or hydrated
// from the disk layer — and counts as a hit, or built it from the image
// (compute, at most one per key per process — the singleflight guarantee
// the tests assert).
//
// SAComputes is always 0: the store caches no static analysis. It stays
// only because benchmark/layers.go reports it (ROADMAP 17(b)).
type Stats struct {
	PredecodeHits     uint64
	PredecodeComputes uint64
	SAComputes        uint64

	DiskHits         uint64 // artifacts loaded from the disk layer
	DiskMisses       uint64 // absent cache files (cold disk)
	DiskErrors       uint64 // corrupt/stale/unreadable entries or failed writes
	DiskWrites       uint64
	DiskBytesRead    uint64
	DiskBytesWritten uint64
}

// entry is the per-image cache line.
type entry struct {
	preOnce sync.Once
	pre     *mem.PredecodeSet
}

// Store is the artifact cache. A single Store is shared by every
// execution that should deduplicate work; all methods are safe for
// concurrent use.
type Store struct {
	dir string // "" = in-process only

	mu      sync.Mutex
	entries map[Key]*entry

	predecodeHits     atomic.Uint64
	predecodeComputes atomic.Uint64
	diskHits          atomic.Uint64
	diskMisses        atomic.Uint64
	diskErrors        atomic.Uint64
	diskWrites        atomic.Uint64
	diskBytesRead     atomic.Uint64
	diskBytesWritten  atomic.Uint64

	// fetchHist, when non-nil, observes the wall-clock latency of every
	// disk-layer fetch attempt (hit, miss, or error) in nanoseconds.
	// Attached via AttachMetrics; nil keeps the fetch path clock-free.
	fetchHist *obs.Hist
}

// AttachMetrics resolves the store's latency histogram from the registry
// ("artifact.fetch_ns"). Safe to call with a nil registry (detaches).
func (s *Store) AttachMetrics(m *obs.Metrics) {
	if s == nil {
		return
	}
	s.fetchHist = m.Hist("artifact.fetch_ns")
}

// NewStore returns an in-process-only store (no disk layer).
func NewStore() *Store {
	return &Store{entries: make(map[Key]*entry)}
}

func (s *Store) entry(k Key) *entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[k]
	if e == nil {
		e = &entry{}
		s.entries[k] = e
	}
	return e
}

// Predecode returns the shared predecoded page set for the image,
// computing (or loading from disk) it exactly once per process.
func (s *Store) Predecode(k Key, p *asm.Program) *mem.PredecodeSet {
	e := s.entry(k)
	computed := false
	e.preOnce.Do(func() {
		if data, ok := s.readDisk(k, kindPredecode); ok {
			if ps, err := mem.DecodePredecodeSet(data); err == nil {
				e.pre = ps
				return
			}
			s.diskErrors.Add(1)
		}
		computed = true
		spans := make([]mem.Span, len(p.Segments))
		for i, seg := range p.Segments {
			spans[i] = mem.Span{Addr: seg.Addr, Data: seg.Data}
		}
		e.pre = mem.BuildPredecodeSet(spans)
		s.writeDisk(k, kindPredecode, mem.EncodePredecodeSet(e.pre))
	})
	if computed {
		s.predecodeComputes.Add(1)
	} else {
		s.predecodeHits.Add(1)
	}
	return e.pre
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		PredecodeHits:     s.predecodeHits.Load(),
		PredecodeComputes: s.predecodeComputes.Load(),
		DiskHits:          s.diskHits.Load(),
		DiskMisses:        s.diskMisses.Load(),
		DiskErrors:        s.diskErrors.Load(),
		DiskWrites:        s.diskWrites.Load(),
		DiskBytesRead:     s.diskBytesRead.Load(),
		DiskBytesWritten:  s.diskBytesWritten.Load(),
	}
}

// PublishMetrics exports the store's counters into the metrics registry
// as artifact.* gauges. Gauges (not counter adds) because a store
// outlives individual executions: each publish snapshots the store's
// running totals, so publishing after every run is idempotent.
func (s *Store) PublishMetrics(m *obs.Metrics) {
	if s == nil || m == nil {
		return
	}
	st := s.Stats()
	for _, g := range []struct {
		name string
		v    uint64
	}{
		{"artifact.predecode.hits", st.PredecodeHits},
		{"artifact.predecode.computes", st.PredecodeComputes},
		{"artifact.disk.hits", st.DiskHits},
		{"artifact.disk.misses", st.DiskMisses},
		{"artifact.disk.errors", st.DiskErrors},
		{"artifact.disk.writes", st.DiskWrites},
		{"artifact.disk.bytes_read", st.DiskBytesRead},
		{"artifact.disk.bytes_written", st.DiskBytesWritten},
	} {
		m.Set(g.name, float64(g.v))
	}
}
