package tools

import (
	"fmt"
	"io"

	"superpin/internal/core"
	"superpin/internal/pin"
)

// ACache is a set-associative LRU data-cache simulator as a SuperPin
// tool — a generalization of the paper's direct-mapped dcache procedure
// (Section 5.2) to associative caches, with an *exact* merge.
//
// Exactness rests on the LRU stack property: every line a slice touches
// is, from that moment on, more recent than every line it never touches.
// Therefore:
//
//   - re-accesses within a slice are decided exactly by the slice's own
//     LRU order over touched lines (untouched prior-state lines are
//     always below them);
//   - only each line's *first* touch in the slice depends on the unknown
//     prior state. The slice assumes those are hits and records them in
//     order. At merge time (slice order), the previous slices' final
//     per-set LRU stack is known, and the first touch of line L after d
//     earlier distinct first-touches in the set is a real hit iff
//     d + rank(L among prior-stack lines not yet re-touched) < ways;
//   - the published final stack is the slice's touched lines in final
//     recency order, followed by untouched prior-state lines, truncated
//     to the associativity.
//
// With ways = 1 this degenerates to the paper's direct-mapped procedure.
type ACache struct {
	lineShift uint
	sets      uint32
	ways      int
	out       io.Writer

	// Merged state, updated in slice order.
	stacks   [][]uint32 // per set: tags, most recent first; len <= ways
	hits     uint64
	misses   uint64
	adjusted uint64
}

// NewACache creates a ways-associative LRU cache simulator with the
// given total size and line size in bytes. Invalid geometry is a
// configuration error reported to the caller, not a panic: these values
// typically arrive from command lines.
func NewACache(cacheBytes, lineBytes, ways int, out io.Writer) (*ACache, error) {
	if cacheBytes <= 0 || lineBytes <= 0 || ways <= 0 ||
		cacheBytes%(lineBytes*ways) != 0 {
		return nil, fmt.Errorf("tools: bad acache geometry: %d bytes / %d per line / %d ways (need positive sizes, total a multiple of line*ways)",
			cacheBytes, lineBytes, ways)
	}
	lineShift := uint(0)
	for 1<<lineShift < lineBytes {
		lineShift++
	}
	if 1<<lineShift != lineBytes {
		return nil, fmt.Errorf("tools: acache line size %d must be a power of two", lineBytes)
	}
	sets := uint32(cacheBytes / (lineBytes * ways))
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("tools: acache set count %d must be a power of two (cache %d / line %d / ways %d)",
			sets, cacheBytes, lineBytes, ways)
	}
	return &ACache{
		lineShift: lineShift,
		sets:      sets,
		ways:      ways,
		out:       out,
		stacks:    make([][]uint32, sets),
	}, nil
}

// Factory returns the per-process tool factory.
func (a *ACache) Factory() core.ToolFactory {
	return func(ctl *core.ToolCtl) core.Tool {
		t := &acacheInstance{
			family:   a,
			superpin: ctl.SuperPin(),
			sets:     make([]acacheSet, a.sets),
		}
		t.onMem = func(c *pin.Ctx) { t.access(c.MemEA()) }
		return t
	}
}

// Hits returns the merged hit count.
func (a *ACache) Hits() uint64 { return a.hits }

// Misses returns the merged miss count.
func (a *ACache) Misses() uint64 { return a.misses }

// Adjusted returns how many assumed hits were corrected at merge time.
func (a *ACache) Adjusted() uint64 { return a.adjusted }

// acacheSet is one set's slice-local state.
type acacheSet struct {
	lru     []uint32        // touched lines, most recent first, len <= ways
	touched map[uint32]bool // every line touched in this slice
	first   []uint32        // first-touch order
}

type acacheInstance struct {
	family   *ACache
	superpin bool
	sets     []acacheSet
	hits     uint64
	misses   uint64
	onMem    pin.AnalysisFn // the memory-access call, built once per instance
}

// Instrument implements core.Tool.
func (t *acacheInstance) Instrument(tr *pin.Trace) {
	for _, bbl := range tr.Bbls() {
		for _, ins := range bbl.Ins() {
			if ins.MemSize() == 0 {
				continue
			}
			ins.InsertCall(pin.Before, t.onMem)
		}
	}
}

func (t *acacheInstance) access(addr uint32) {
	line := addr >> t.family.lineShift
	setIdx := line & (t.family.sets - 1)
	tag := line / t.family.sets
	s := &t.sets[setIdx]

	if s.touched == nil {
		s.touched = make(map[uint32]bool)
	}
	if !s.touched[tag] {
		// First touch in this slice: assume a hit (reconciled at merge).
		s.touched[tag] = true
		s.first = append(s.first, tag)
		t.hits++
		t.promote(s, tag, true)
		return
	}
	// Re-access: decided exactly by the local LRU over touched lines.
	if indexOf(s.lru, tag) >= 0 {
		t.hits++
		t.promote(s, tag, false)
	} else {
		t.misses++
		t.promote(s, tag, true)
	}
}

// promote moves tag to the top of the set's local LRU, inserting it if
// asked, evicting beyond the associativity.
func (t *acacheInstance) promote(s *acacheSet, tag uint32, insert bool) {
	if i := indexOf(s.lru, tag); i >= 0 {
		copy(s.lru[1:i+1], s.lru[:i])
		s.lru[0] = tag
		return
	}
	if !insert {
		return
	}
	s.lru = append(s.lru, 0)
	copy(s.lru[1:], s.lru[:len(s.lru)-1])
	s.lru[0] = tag
	if len(s.lru) > t.family.ways {
		s.lru = s.lru[:t.family.ways]
	}
}

func indexOf(lines []uint32, tag uint32) int {
	for i, l := range lines {
		if l == tag {
			return i
		}
	}
	return -1
}

// SliceBegin implements core.SliceAware.
func (t *acacheInstance) SliceBegin(int) {}

// SliceEnd implements core.SliceAware.
func (t *acacheInstance) SliceEnd(int) { t.merge() }

func (t *acacheInstance) merge() {
	f := t.family
	for setIdx := range t.sets {
		s := &t.sets[setIdx]
		if s.touched == nil {
			continue
		}
		prior := f.stacks[setIdx]

		// Reconcile first touches in order: the i-th first touch of line
		// L is a real hit iff i + rank(L among prior lines not yet
		// first-touched) < ways.
		seen := make(map[uint32]bool, len(s.first))
		for d, tag := range s.first {
			rank := -1
			pos := 0
			for _, p := range prior {
				if seen[p] {
					continue // already re-touched: now above all prior lines
				}
				if p == tag {
					rank = pos
					break
				}
				pos++
			}
			if rank < 0 || d+rank >= f.ways {
				t.hits--
				t.misses++
				f.adjusted++
			}
			seen[tag] = true
		}

		// Publish the set's final stack: touched lines in final recency
		// order, then untouched prior lines, truncated to ways.
		next := make([]uint32, 0, f.ways)
		next = append(next, s.lru...)
		for _, p := range prior {
			if len(next) == f.ways {
				break
			}
			if !s.touched[p] {
				next = append(next, p)
			}
		}
		f.stacks[setIdx] = next
	}
	f.hits += t.hits
	f.misses += t.misses
}

// Fini implements core.Finisher. Under plain Pin the single instance
// reconciles against the empty initial state (all first touches become
// cold misses), which is exactly a serial cold-start simulation.
func (t *acacheInstance) Fini(code uint32) {
	if !t.superpin {
		t.merge()
	}
	if t.family.out != nil {
		total := t.family.hits + t.family.misses
		rate := 0.0
		if total > 0 {
			rate = float64(t.family.hits) / float64(total)
		}
		fmt.Fprintf(t.family.out, "acache(%d-way): %d accesses, %d hits, %d misses (%.2f%% hit rate, %d adjusted)\n",
			t.family.ways, total, t.family.hits, t.family.misses, 100*rate, t.family.adjusted)
	}
}
