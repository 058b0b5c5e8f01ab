// Package artifact is the content-addressed artifact store: host-side
// derived state that is a pure function of a program image — predecoded
// page tables (internal/mem), static analysis results (internal/sa) and
// the hot-trace warm-start seed (internal/jit) — cached under the
// image's content hash and shared across executions.
//
// Layer 1 is an in-process cache with singleflight semantics: any number
// of concurrent executions of the same image (spbench -j workers, future
// fleet-mode jobs) compute each artifact exactly once and share the
// immutable result. Layer 2, enabled by constructing the store with
// NewDiskStore, persists artifacts across processes with versioned,
// checksummed, atomically-written files; a missing, corrupt or stale
// entry silently falls back to the in-process cold path.
//
// Everything cached here steers host-side execution only. Predecode
// adoption verifies page bytes before installing views, sa payloads are
// structurally validated against the image, and the warm seed merely
// accelerates second-tier promotion — so virtual results are
// byte-identical with the store attached, warm or cold (`spbench -exp
// diff`'s warm and disk-warm arms prove exactly that).
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"

	"superpin/internal/asm"
	"superpin/internal/jit"
	"superpin/internal/mem"
	"superpin/internal/obs"
	"superpin/internal/sa"
)

// Key is the content hash of a program image.
type Key [sha256.Size]byte

// String returns the key in hex, as used in cache file names.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyOf derives the content key of a program image: a SHA-256 over the
// entry point, every segment (address and bytes, in image order) and the
// symbol table sorted by name. Symbols are part of the key because sa's
// block discovery roots at symbol-labeled addresses; source line tables
// are excluded because nothing execution-visible reads them.
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

// Stats is a snapshot of the store's counters. Hits and Computes
// partition the calls for each artifact kind: every call either found
// the entry without building it — already in process, or hydrated from
// the disk layer — and counts as a hit, or built it from the image
// (compute, at most one per key per process — the singleflight
// guarantee the tests assert).
type Stats struct {
	PredecodeHits     uint64
	PredecodeComputes uint64
	SAHits            uint64
	SAComputes        uint64
	SeedHits          uint64 // Seed calls that found a non-empty seed
	SeedMisses        uint64
	SeedMerges        uint64

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

	saOnce sync.Once
	sa     *sa.Analysis

	// seed is an immutable snapshot, replaced wholesale under seedMu by
	// MergeSeed; readers keep whatever snapshot they loaded. diskSeed
	// records that the disk layer was consulted (once per process).
	seedMu   sync.Mutex
	seed     *jit.WarmSeed
	diskSeed bool
}

// Store is the artifact cache. A single Store is shared by every
// execution (and every SuperPin slice engine) that should deduplicate
// work; all methods are safe for concurrent use.
type Store struct {
	dir string // "" = in-process only

	mu      sync.Mutex
	entries map[Key]*entry

	predecodeHits     atomic.Uint64
	predecodeComputes atomic.Uint64
	saHits            atomic.Uint64
	saComputes        atomic.Uint64
	seedHits          atomic.Uint64
	seedMisses        atomic.Uint64
	seedMerges        atomic.Uint64
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

// Analysis returns the shared static analysis for the image, computing
// (or loading from disk) it exactly once per process. Analyze never
// fails; verifier rejections travel inside the Analysis and are
// surfaced by the caller via Err(), cached or not.
func (s *Store) Analysis(k Key, p *asm.Program) *sa.Analysis {
	e := s.entry(k)
	computed := false
	e.saOnce.Do(func() {
		if data, ok := s.readDisk(k, kindSA); ok {
			if an, err := sa.Decode(data, p); err == nil {
				e.sa = an
				return
			}
			s.diskErrors.Add(1)
		}
		computed = true
		e.sa = sa.Analyze(p)
		s.writeDisk(k, kindSA, e.sa.Encode())
	})
	if computed {
		s.saComputes.Add(1)
	} else {
		s.saHits.Add(1)
	}
	return e.sa
}

// Seed returns the current warm-start seed snapshot for the image, or
// nil when no prior execution has contributed one (and the disk layer
// has none). The returned seed is immutable; later merges publish new
// snapshots without disturbing it.
func (s *Store) Seed(k Key) *jit.WarmSeed {
	e := s.entry(k)
	e.seedMu.Lock()
	if !e.diskSeed {
		e.diskSeed = true
		if data, ok := s.readDisk(k, kindSeed); ok {
			if w, err := jit.DecodeWarmSeed(data); err == nil && w.Len() > 0 {
				e.seed = w
			} else if err != nil {
				s.diskErrors.Add(1)
			}
		}
	}
	seed := e.seed
	e.seedMu.Unlock()
	if seed != nil {
		s.seedHits.Add(1)
	} else {
		s.seedMisses.Add(1)
	}
	return seed
}

// MergeSeed folds an execution's harvested hotness delta into the
// image's seed and publishes the merged snapshot (and, with a disk
// layer, persists it). Empty deltas are ignored.
func (s *Store) MergeSeed(k Key, delta *jit.WarmSeed) {
	if delta.Len() == 0 {
		return
	}
	e := s.entry(k)
	e.seedMu.Lock()
	merged := jit.NewWarmSeed()
	merged.Merge(e.seed)
	merged.Merge(delta)
	e.seed = merged
	e.diskSeed = true // the merged snapshot supersedes anything on disk
	e.seedMu.Unlock()
	s.seedMerges.Add(1)
	s.writeDisk(k, kindSeed, jit.EncodeWarmSeed(merged))
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		PredecodeHits:     s.predecodeHits.Load(),
		PredecodeComputes: s.predecodeComputes.Load(),
		SAHits:            s.saHits.Load(),
		SAComputes:        s.saComputes.Load(),
		SeedHits:          s.seedHits.Load(),
		SeedMisses:        s.seedMisses.Load(),
		SeedMerges:        s.seedMerges.Load(),
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
		{"artifact.sa.hits", st.SAHits},
		{"artifact.sa.computes", st.SAComputes},
		{"artifact.seed.hits", st.SeedHits},
		{"artifact.seed.misses", st.SeedMisses},
		{"artifact.seed.merges", st.SeedMerges},
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
