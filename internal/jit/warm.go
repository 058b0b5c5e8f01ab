package jit

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// WarmSeed is the hot-trace warm-start artifact: per trace entry PC, the
// promotion counters and hottest-exit measurement a prior execution of
// the same program image earned. A warm run applies the seed to each
// trace as it is compiled, so traces the previous run proved hot promote
// to the second tier immediately instead of re-earning HotThreshold
// dispatches.
//
// The seed is pure host-side steering state: it changes when promotion
// happens and which exit the hot layout prefers, never a virtual result.
// A WarmSeed published through the artifact store is treated as
// immutable; merging builds a new value.
type WarmSeed struct {
	Entries map[uint32]WarmEntry
}

// WarmEntry is the harvested hotness of one trace.
type WarmEntry struct {
	Execs    uint64
	HotExit  uint32 // hottest recorded exit target (meaningful when HotCount > 0)
	HotCount uint64
}

// NewWarmSeed returns an empty seed.
func NewWarmSeed() *WarmSeed {
	return &WarmSeed{Entries: make(map[uint32]WarmEntry)}
}

// Len returns the number of seeded traces. Nil-safe.
func (w *WarmSeed) Len() int {
	if w == nil {
		return 0
	}
	return len(w.Entries)
}

// Lookup returns the entry for a trace entry PC. Nil-safe.
func (w *WarmSeed) Lookup(pc uint32) (WarmEntry, bool) {
	if w == nil {
		return WarmEntry{}, false
	}
	e, ok := w.Entries[pc]
	return e, ok
}

// record folds one observation into the entry for pc. Counters add;
// the hottest exit keeps the larger count, ties resolving to the lower
// PC — commutative and associative, so folding order never matters.
func (w *WarmSeed) record(pc uint32, o WarmEntry) {
	e := w.Entries[pc]
	e.Execs += o.Execs
	if o.HotCount > e.HotCount ||
		(o.HotCount == e.HotCount && o.HotCount > 0 && o.HotExit < e.HotExit) {
		e.HotExit, e.HotCount = o.HotExit, o.HotCount
	}
	w.Entries[pc] = e
}

// Harvest folds the hotness counters of every trace resident in c into
// w. Promoted traces froze their counters at promotion; unpromoted ones
// contribute whatever they accumulated, so a future run resumes counting
// where this one stopped.
func (w *WarmSeed) Harvest(c *CodeCache) {
	c.Traces(func(ct *CompiledTrace) {
		pc, cnt := ct.Exits.Hottest()
		if ct.Execs == 0 && cnt == 0 {
			return
		}
		w.record(ct.Addr, WarmEntry{
			Execs:    ct.Execs,
			HotExit:  pc,
			HotCount: cnt,
		})
	})
}

// Merge folds other into w. Nil other is a no-op.
func (w *WarmSeed) Merge(other *WarmSeed) {
	if other == nil {
		return
	}
	for pc, e := range other.Entries { //detguard:ok per-pc merge is commutative
		w.record(pc, e)
	}
}

// warmRec is the fixed-width on-disk record: pc, Execs, HotExit and
// HotCount.
const warmRec = 4 + 8 + 4 + 8

// EncodeWarmSeed serializes the seed sorted by trace PC, so identical
// seeds always produce identical bytes.
func EncodeWarmSeed(w *WarmSeed) []byte {
	pcs := make([]uint32, 0, w.Len())
	if w != nil {
		for pc := range w.Entries { //detguard:ok keys sorted below
			pcs = append(pcs, pc)
		}
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	out := make([]byte, 4, 4+len(pcs)*warmRec)
	binary.LittleEndian.PutUint32(out, uint32(len(pcs)))
	var rec [warmRec]byte
	for _, pc := range pcs {
		e := w.Entries[pc]
		binary.LittleEndian.PutUint32(rec[0:], pc)
		binary.LittleEndian.PutUint64(rec[4:], e.Execs)
		binary.LittleEndian.PutUint32(rec[12:], e.HotExit)
		binary.LittleEndian.PutUint64(rec[16:], e.HotCount)
		out = append(out, rec[:]...)
	}
	return out
}

// DecodeWarmSeed rebuilds a seed from EncodeWarmSeed output.
func DecodeWarmSeed(data []byte) (*WarmSeed, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("warm seed: short header")
	}
	n := binary.LittleEndian.Uint32(data)
	data = data[4:]
	if uint64(len(data)) != uint64(n)*warmRec {
		return nil, fmt.Errorf("warm seed: length %d does not match %d entries", len(data), n)
	}
	w := &WarmSeed{Entries: make(map[uint32]WarmEntry, n)}
	for i := uint32(0); i < n; i++ {
		pc := binary.LittleEndian.Uint32(data)
		if _, dup := w.Entries[pc]; dup {
			return nil, fmt.Errorf("warm seed: duplicate trace %#x", pc)
		}
		w.Entries[pc] = WarmEntry{
			Execs:    binary.LittleEndian.Uint64(data[4:]),
			HotExit:  binary.LittleEndian.Uint32(data[12:]),
			HotCount: binary.LittleEndian.Uint64(data[16:]),
		}
		data = data[warmRec:]
	}
	return w, nil
}
