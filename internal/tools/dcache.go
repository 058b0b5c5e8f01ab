package tools

import (
	"fmt"
	"io"

	"superpin/internal/core"
	"superpin/internal/pin"
)

// DCache is a direct-mapped data-cache simulator converted to a SuperPin
// tool by the procedure of paper Sections 4.5 and 5.2. Because the cache
// state at a slice's start depends on the previous slice, each slice:
//
//  1. assumes the first access to each cache set is a hit, recording the
//     assumed line,
//  2. simulates all subsequent accesses against its own local state, and
//  3. at merge time (in slice order) compares each assumption with the
//     previous slices' final cache state, converting wrong assumed hits
//     into misses, then publishes its own final state.
//
// For a direct-mapped cache the reconciliation is exact: SuperPin's
// hit/miss totals equal a serial simulation's, which the tests verify.
type DCache struct {
	lineShift uint
	sets      uint32
	out       io.Writer

	// Merged state, updated in slice order.
	runningTags []uint32 // 0 = invalid, else tag+1
	hits        uint64
	misses      uint64
	adjusted    uint64 // assumed hits converted to misses at merge time
}

// NewDCache creates a simulator for a direct-mapped cache with the given
// total size and line size in bytes (both powers of two). Invalid
// geometry — sizes that aren't positive powers of two, or a total size
// not a multiple of the line size — is a configuration error reported to
// the caller, not a panic: these values typically arrive from command
// lines.
func NewDCache(cacheBytes, lineBytes int, out io.Writer) (*DCache, error) {
	if cacheBytes <= 0 || lineBytes <= 0 || cacheBytes%lineBytes != 0 {
		return nil, fmt.Errorf("tools: bad dcache geometry: %d bytes / %d per line (need positive sizes, total a multiple of line)",
			cacheBytes, lineBytes)
	}
	lineShift := uint(0)
	for 1<<lineShift < lineBytes {
		lineShift++
	}
	if 1<<lineShift != lineBytes {
		return nil, fmt.Errorf("tools: dcache line size %d must be a power of two", lineBytes)
	}
	sets := uint32(cacheBytes / lineBytes)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("tools: dcache set count %d must be a power of two (cache %d / line %d)",
			sets, cacheBytes, lineBytes)
	}
	return &DCache{
		lineShift:   lineShift,
		sets:        sets,
		out:         out,
		runningTags: make([]uint32, sets),
	}, nil
}

// Factory returns the per-process tool factory.
func (d *DCache) Factory() core.ToolFactory {
	return func(ctl *core.ToolCtl) core.Tool {
		t := &dcacheInstance{
			family:   d,
			superpin: ctl.SuperPin(),
			master:   ctl.SliceNum() == -1,
			tags:     make([]uint32, d.sets),
			firstTag: make([]uint32, d.sets),
		}
		t.onMem = func(c *pin.Ctx) { t.access(c.MemEA()) }
		return t
	}
}

// Hits returns the merged hit count.
func (d *DCache) Hits() uint64 { return d.hits }

// Misses returns the merged miss count.
func (d *DCache) Misses() uint64 { return d.misses }

// Adjusted returns how many assumed hits were converted to misses during
// merging — a measure of how often slice-boundary cache state mattered.
func (d *DCache) Adjusted() uint64 { return d.adjusted }

type dcacheInstance struct {
	family   *DCache
	superpin bool
	master   bool

	tags     []uint32 // local cache state; 0 = invalid, else tag+1
	firstTag []uint32 // assumed-hit first access per set; 0 = none
	hits     uint64
	misses   uint64

	onMem pin.AnalysisFn // the memory-access call, built once per instance
}

// Instrument implements core.Tool: every memory instruction gets a
// before-call with its effective address.
func (t *dcacheInstance) Instrument(tr *pin.Trace) {
	for _, bbl := range tr.Bbls() {
		for _, ins := range bbl.Ins() {
			if ins.MemSize() == 0 {
				continue
			}
			ins.InsertCall(pin.Before, t.onMem)
		}
	}
}

func (t *dcacheInstance) access(addr uint32) {
	line := addr >> t.family.lineShift
	set := line & (t.family.sets - 1)
	tag := line/t.family.sets + 1
	switch {
	case t.tags[set] == tag:
		t.hits++
	case t.tags[set] == 0 && t.firstTag[set] == 0:
		// First access to this set in the slice: assume a hit and record
		// the assumed line for merge-time reconciliation.
		t.hits++
		t.firstTag[set] = tag
		t.tags[set] = tag
	default:
		t.misses++
		t.tags[set] = tag
	}
}

// SliceBegin implements core.SliceAware.
func (t *dcacheInstance) SliceBegin(int) {}

// SliceEnd implements core.SliceAware: reconcile assumptions against the
// previous slices' merged final state, publish this slice's final state,
// and add the counts to the shared totals. Called in slice order.
func (t *dcacheInstance) SliceEnd(int) { t.merge() }

func (t *dcacheInstance) merge() {
	f := t.family
	for set, assumed := range t.firstTag {
		if assumed != 0 && f.runningTags[set] != assumed {
			t.hits--
			t.misses++
			f.adjusted++
		}
	}
	for set, tag := range t.tags {
		if tag != 0 {
			f.runningTags[set] = tag
		}
	}
	f.hits += t.hits
	f.misses += t.misses
}

// Fini implements core.Finisher. Under plain Pin the instance is the only
// "slice": its assumptions reconcile against the invalid initial state
// (all become cold misses), giving exactly a serial cold-start
// simulation.
func (t *dcacheInstance) Fini(code uint32) {
	if !t.superpin {
		t.merge()
	}
	if t.family.out != nil {
		total := t.family.hits + t.family.misses
		rate := 0.0
		if total > 0 {
			rate = float64(t.family.hits) / float64(total)
		}
		fmt.Fprintf(t.family.out, "dcache: %d accesses, %d hits, %d misses (%.2f%% hit rate, %d adjusted)\n",
			total, t.family.hits, t.family.misses, 100*rate, t.family.adjusted)
	}
}
