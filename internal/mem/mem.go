// Package mem implements the paged guest memory used by the simulated
// kernel (internal/kernel) and the instrumentation engines built on it.
//
// The central feature is copy-on-write Fork, mirroring the Linux fork(2)
// semantics SuperPin depends on: forking a memory image shares all pages
// between parent and child, and the first write to a shared page copies
// it. The number of pages copied is tracked (Copies) so the kernel's
// cost model can charge copy-on-write page faults to the process that
// triggered them — the "Fork Overhead" component of the paper's Section
// 6.3 breakdown.
//
// Pages are allocated lazily; reads of unmaterialized pages observe zeros
// without allocating, and only writes materialize backing storage.
// Address-space layout policy (brk, mmap regions, SuperPin's "memory
// bubble") lives in the kernel; this package only provides the backing
// store.
//
// Two host-side fast paths keep interpretation cheap without changing any
// guest-visible result:
//
//   - small direct-mapped software TLBs per image (64 read and 64 write
//     entries, indexed by page number mod 64) that skip the page-map
//     lookup whenever an access lands on a recently used page — so loads
//     and stores that alternate between the stack, data and heap pages
//     all hit;
//   - a per-page predecode cache (FetchInst) that stores the decoded
//     instruction for every word of a code page, so the interpreter's
//     fetch path stops paying a map lookup, byte assembly and decode per
//     executed instruction. The cache is invalidated when a store hits
//     the page (self-modifying code) and is never carried onto a
//     copy-on-write duplicate.
//
// Both caches can be disabled with SetCaching so differential tests and
// benchmarks can verify and measure their effect.
//
// An engine that translates guest code ahead of execution registers the
// pages it translated from (WatchCode). Stores into a watched page never
// hit the write TLB: each one takes the miss path, which logs the stored
// byte range and advances CopyEvents, so the batched executors stop right
// after the storing instruction and every engine sharing the image can
// drop the translations it overwrote (CodeStoresSince).
package mem

import (
	"fmt"
	"sync/atomic"

	"superpin/internal/isa"
)

// Page geometry.
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4 KiB
	pageMask  = PageSize - 1

	wordsPerPage = PageSize / isa.WordSize
)

// invalidPN is the software-TLB tag for "no page cached" (page numbers
// derived from 32-bit addresses never exceed 2^20-1).
const invalidPN = ^uint32(0)

// tlbSize is the number of entries in each direct-mapped software TLB;
// page pn lives in slot pn % tlbSize.
const tlbSize = 64

// tlbEntry caches the page of one page number.
type tlbEntry struct {
	pn uint32
	pg *page
}

// page is a refcounted 4 KiB page. refs counts the number of Memory images
// that reference the page; a page with refs > 1 must be copied before it
// is written.
//
// Within one kernel run a single goroutine touches every image, so the
// pages of a run are never shared across goroutines. refs and code are
// nonetheless atomic, so images that share pages through Fork stay safe
// if a caller does hand them to different goroutines (the concurrent
// fork tests do). The invariants that make the copy-on-write protocol
// safe without locks:
//
//   - data is only ever written through a page with refs == 1, and a page
//     observed at refs == 1 by its writing owner cannot gain references
//     concurrently (new references come only from forking an image that
//     already maps the page — and at refs == 1 the writer's image is the
//     only one that does).
//   - a shared page's data is immutable, so a concurrently built code
//     view is a pure function of stable bytes; racing builders store
//     equivalent values.
type page struct {
	data [PageSize]byte
	refs atomic.Int32

	// code is the lazily-built predecoded view of this page, or nil.
	// Stores through writePage clear it (self-modifying code); COW
	// duplicates start without it. A shared page is never written in
	// place, so a non-nil code is always consistent with data.
	code atomic.Pointer[codePage]
}

// codePage caches the decoded form of every word in one page.
type codePage struct {
	ins [wordsPerPage]isa.Inst
	bad [wordsPerPage]bool // word does not decode; fetch re-decodes for the error
}

// predecode builds the decoded view of one page's bytes.
func predecode(data *[PageSize]byte) *codePage {
	cp := &codePage{}
	for i := 0; i < wordsPerPage; i++ {
		off := i * isa.WordSize
		w := uint32(data[off]) | uint32(data[off+1])<<8 |
			uint32(data[off+2])<<16 | uint32(data[off+3])<<24
		in, err := isa.Decode(w)
		if err != nil {
			cp.bad[i] = true
			continue
		}
		cp.ins[i] = in
	}
	return cp
}

// zeroPage backs reads of unmaterialized pages. It is shared by every
// image and must never be written; writePage always materializes a private
// page instead. Its predecode view is built once at init.
var zeroPage page

func init() { zeroPage.code.Store(predecode(&zeroPage.data)) }

// Fault describes an invalid guest memory access.
type Fault struct {
	Addr   uint32
	Write  bool
	Reason string
}

func (f *Fault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	return fmt.Sprintf("mem: %s fault at %#08x: %s", kind, f.Addr, f.Reason)
}

// Memory is one process's view of guest memory.
//
// A Memory value is single-owner: exactly one goroutine may use it at a
// time (the kernel runs every image of a simulation on one goroutine).
// Distinct images that *share pages* through Fork may be used
// concurrently — the page-level atomics above carry that safely — but
// the Memory struct itself (page map, TLBs, counters) is never
// shared between goroutines without a handoff.
type Memory struct {
	pages map[uint32]*page

	// Direct-mapped software TLBs for reads and writes. A read entry
	// always holds the current m.pages[pn] (the zero page when absent);
	// writeMiss refreshes the read entry of every page it materializes or
	// copies. A write entry only ever holds an unwatched page with
	// refs == 1, so hitting it can never skip a needed copy-on-write
	// duplication or a code-store log entry. Both are flushed on Fork
	// (parent and child), Release and whenever caching is toggled;
	// WatchCode evicts the entry of each page it watches.
	rtlb, wtlb [tlbSize]tlbEntry

	// Fetch TLB: the predecoded view of the last fetched-from page. Kept
	// separate from the read entry so data loads interleaved with fetches
	// (the common interpreter pattern) do not evict the code page.
	// Invalidated by writePage when a store hits this page, and by every
	// flushTLB.
	fpn uint32
	fcp *codePage

	// noCache disables the TLBs and the predecode cache (SetCaching).
	noCache bool

	// code holds the page numbers an engine translated code from
	// (WatchCode), and codeLo..codeHi bounds them, so a write miss on a
	// data page is rejected with two compares. A watched page never
	// enters the write TLB. codeLog is a ring of the byte ranges of the
	// last codeLogSize stores into watched pages; codeGen counts all of
	// them. The log is never consumed: each reader keeps its own
	// generation, so every engine sharing the image sees every store.
	code           map[uint32]struct{}
	codeLo, codeHi uint32
	codeLog        []codeRange
	codeGen        uint64

	// CopyEvents counts the events after which a batched executor must
	// stop so its runner can settle them: copy-on-write page copies
	// (Copies) and stores into watched code pages (CodeGen). Executors
	// compare it against its value at batch entry.
	CopyEvents uint64
	// Copies counts copy-on-write page copies performed through this
	// image since creation. The kernel samples deltas of this counter to
	// charge page-copy cost to the faulting process.
	Copies uint64
	// TouchedPages counts pages materialized (zero-fill allocations).
	// Pure reads of absent pages observe zeros without materializing, so
	// only writes count here.
	TouchedPages uint64
}

// New returns an empty memory image.
func New() *Memory {
	m := &Memory{pages: make(map[uint32]*page)}
	m.flushTLB()
	return m
}

// emptyTLB is a TLB with every entry invalid; flushes copy it in whole.
var emptyTLB = func() (t [tlbSize]tlbEntry) {
	for i := range t {
		t[i].pn = invalidPN
	}
	return t
}()

// flushTLB invalidates every software-TLB entry (read, write, fetch).
func (m *Memory) flushTLB() {
	m.rtlb, m.wtlb = emptyTLB, emptyTLB
	m.fpn, m.fcp = invalidPN, nil
}

// flushWriteTLB invalidates the write-TLB entries, so the next store to
// every page goes back through writeMiss.
func (m *Memory) flushWriteTLB() { m.wtlb = emptyTLB }

// SetCaching enables or disables the host-side fast paths (the software
// TLB and the per-page predecode cache). Caching is on by default and
// never affects guest-visible behavior; differential tests and benchmarks
// disable it to verify and measure exactly that.
func (m *Memory) SetCaching(on bool) {
	m.noCache = !on
	m.flushTLB()
}

// codeRange is one inclusive byte range [lo, hi] of a code store.
type codeRange struct{ lo, hi uint32 }

// codeLogSize is the number of code stores the log keeps. A reader that
// falls further behind (another thread's engine, off-CPU while this many
// stores hit code) treats all its translations as overwritten.
const codeLogSize = 64

// WatchCode registers the pages covering [addr, addr+size) as translated
// code: from now on every store into them is logged for CodeStoresSince
// and advances CopyEvents. Engines call it for each trace they translate.
// Watching is keyed on this image's page numbers, so it covers pages not
// yet materialized, and a forked image starts with nothing watched.
func (m *Memory) WatchCode(addr, size uint32) {
	if size == 0 {
		return
	}
	// The range may wrap past the top of the address space, as the PC
	// does.
	for pn, last := addr>>PageShift, (addr+size-1)>>PageShift; ; pn = (pn + 1) & (1<<(32-PageShift) - 1) {
		if _, ok := m.code[pn]; !ok {
			if m.code == nil {
				m.code = make(map[uint32]struct{})
				m.codeLo, m.codeHi = pn, pn
			}
			m.code[pn] = struct{}{}
			m.codeLo, m.codeHi = min(m.codeLo, pn), max(m.codeHi, pn)
			// A cached write entry would let stores bypass the log.
			if e := &m.wtlb[pn%tlbSize]; e.pn == pn {
				*e = tlbEntry{pn: invalidPN}
			}
		}
		if pn == last {
			return
		}
	}
}

// watched reports whether page pn holds translated code (WatchCode).
func (m *Memory) watched(pn uint32) bool {
	if m.code == nil || pn < m.codeLo || pn > m.codeHi {
		return false
	}
	_, ok := m.code[pn]
	return ok
}

// CodeGen returns the number of stores into watched code pages so far.
func (m *Memory) CodeGen() uint64 { return m.codeGen }

// CodeStoresSince calls fn with the byte range [lo, hi] of every store
// into watched code since generation gen (an earlier CodeGen value),
// oldest first. It reports false, calling fn for none, when the log no
// longer holds them all; the caller must then assume any code changed.
func (m *Memory) CodeStoresSince(gen uint64, fn func(lo, hi uint32)) bool {
	if m.codeGen-gen > codeLogSize {
		return false
	}
	for g := gen; g < m.codeGen; g++ {
		r := m.codeLog[g%codeLogSize]
		fn(r.lo, r.hi)
	}
	return true
}

// logCodeStore records a store of n bytes at addr into a watched page.
func (m *Memory) logCodeStore(addr, n uint32) {
	if m.codeLog == nil {
		m.codeLog = make([]codeRange, codeLogSize)
	}
	m.codeLog[m.codeGen%codeLogSize] = codeRange{lo: addr, hi: addr + n - 1}
	m.codeGen++
	m.CopyEvents++
}

// Fork returns a copy-on-write clone of m. Both images share all current
// pages; each side copies a page when it first writes to it. Forking is
// safe while other images sharing m's pages run on other goroutines: it
// only adds references, which can at worst make a concurrent writer copy
// a page it was about to start sharing anyway.
func (m *Memory) Fork() *Memory {
	child := &Memory{pages: make(map[uint32]*page, len(m.pages)), noCache: m.noCache}
	child.flushTLB()
	for pn, pg := range m.pages { //detguard:ok per-page refcounts, order-free
		pg.refs.Add(1)
		child.pages[pn] = pg
	}
	// Every page is now shared: the parent's cached write page must go
	// back through the copy-on-write check before its next store.
	m.flushTLB()
	return child
}

// Release drops all page references held by m. After Release, m must not
// be used. Calling Release when a process exits keeps shared refcounts
// accurate so SharedPages stays meaningful for long runs.
func (m *Memory) Release() {
	for pn, pg := range m.pages { //detguard:ok per-page refcounts, order-free
		pg.refs.Add(-1)
		delete(m.pages, pn)
	}
	m.code = nil
	m.flushTLB()
}

// Pages returns the number of materialized pages in this image.
func (m *Memory) Pages() int { return len(m.pages) }

// SharedPages returns the number of materialized pages currently shared
// with at least one other image.
func (m *Memory) SharedPages() int {
	n := 0
	for _, pg := range m.pages { //detguard:ok commutative count
		if pg.refs.Load() > 1 {
			n++
		}
	}
	return n
}

// readPage returns the page containing addr for reading. Absent pages read
// as zeros via the shared zero page, without materializing.
func (m *Memory) readPage(addr uint32) *page {
	pn := addr >> PageShift
	if e := &m.rtlb[pn%tlbSize]; e.pn == pn {
		return e.pg
	}
	return m.readMiss(pn)
}

// readMiss is readPage's read-TLB-miss path: a page-map lookup that
// refills the slot of pn (unless caching is off).
func (m *Memory) readMiss(pn uint32) *page {
	pg := m.pages[pn]
	if pg == nil {
		pg = &zeroPage
	}
	if !m.noCache {
		m.rtlb[pn%tlbSize] = tlbEntry{pn: pn, pg: pg}
	}
	return pg
}

// writePage returns the page containing addr for writing n bytes there,
// materializing a zero page or performing a copy-on-write duplication as
// needed. It also invalidates the page's predecode cache: a store may
// overwrite code.
func (m *Memory) writePage(addr, n uint32) *page {
	pn := addr >> PageShift
	if pn == m.fpn {
		// The fetch TLB caches this page's decoded view; drop it before
		// the store makes it stale (self-modifying code).
		m.fpn, m.fcp = invalidPN, nil
	}
	if e := &m.wtlb[pn%tlbSize]; e.pn == pn {
		// A write entry's page is private (refs == 1), so only this image
		// can have built its code view: the atomic store is needed only
		// when one exists.
		pg := e.pg
		if pg.code.Load() != nil {
			pg.code.Store(nil)
		}
		return pg
	}
	return m.writeMiss(addr, n)
}

// writeMiss is writePage's write-TLB-miss path: it materializes or
// copies the page as needed,
// logs the store when the page is watched code and refills the TLB slots
// of the page (unless caching is off; a watched page gets no write slot).
func (m *Memory) writeMiss(addr, n uint32) *page {
	pn := addr >> PageShift
	pg := m.pages[pn]
	switch {
	case pg == nil:
		pg = new(page)
		pg.refs.Store(1)
		m.pages[pn] = pg
		m.TouchedPages++
	case pg.refs.Load() > 1:
		cp := new(page)
		cp.data = pg.data
		cp.refs.Store(1)
		pg.refs.Add(-1)
		m.pages[pn] = cp
		m.Copies++
		m.CopyEvents++
		pg = cp
	}
	pg.code.Store(nil)
	watched := m.watched(pn)
	if watched {
		m.logCodeStore(addr, n)
	}
	if !m.noCache {
		// Populate both entries: a store is usually followed by loads
		// from the same page, and the read entry must not keep serving
		// the zero page (or a pre-COW original) for this page number.
		if !watched {
			m.wtlb[pn%tlbSize] = tlbEntry{pn: pn, pg: pg}
		}
		m.rtlb[pn%tlbSize] = tlbEntry{pn: pn, pg: pg}
	}
	return pg
}

// LoadWord reads the aligned 32-bit little-endian word at addr.
func (m *Memory) LoadWord(addr uint32) (uint32, *Fault) {
	if addr&3 != 0 {
		return 0, &Fault{Addr: addr, Reason: "misaligned word read"}
	}
	pg := m.readPage(addr)
	off := addr & pageMask
	d := pg.data[off : off+4]
	return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24, nil
}

// StoreWord writes the aligned 32-bit little-endian word at addr.
func (m *Memory) StoreWord(addr, v uint32) *Fault {
	if addr&3 != 0 {
		return &Fault{Addr: addr, Write: true, Reason: "misaligned word write"}
	}
	pg := m.writePage(addr, isa.WordSize)
	off := addr & pageMask
	pg.data[off] = byte(v)
	pg.data[off+1] = byte(v >> 8)
	pg.data[off+2] = byte(v >> 16)
	pg.data[off+3] = byte(v >> 24)
	return nil
}

// LoadByte reads the byte at addr.
func (m *Memory) LoadByte(addr uint32) (byte, *Fault) {
	pg := m.readPage(addr)
	return pg.data[addr&pageMask], nil
}

// StoreByte writes the byte at addr.
func (m *Memory) StoreByte(addr uint32, v byte) *Fault {
	pg := m.writePage(addr, 1)
	pg.data[addr&pageMask] = v
	return nil
}

// FetchInst returns the decoded instruction at the aligned address addr,
// filling the page's predecode cache on first use. It is the
// interpreter's fetch path: after the first fetch from a page, every
// subsequent fetch is a fetch-TLB tag compare plus an array index. The
// returned error is a *Fault for a misaligned address or a decode error
// for an undecodable word, matching a LoadWord+Decode sequence exactly.
func (m *Memory) FetchInst(addr uint32) (isa.Inst, error) {
	if addr&3 == 0 && addr>>PageShift == m.fpn {
		i := (addr & pageMask) >> 2
		if cp := m.fcp; !cp.bad[i] {
			return cp.ins[i], nil
		}
	}
	return m.fetchSlow(addr)
}

// fetchSlow is FetchInst's fetch-TLB-miss path: it validates the address,
// finds (or builds) the page's predecoded view, primes the fetch TLB and
// decodes. Also handles the noCache mode and undecodable words.
func (m *Memory) fetchSlow(addr uint32) (isa.Inst, error) {
	if addr&3 != 0 {
		return isa.Inst{}, &Fault{Addr: addr, Reason: "misaligned word read"}
	}
	if m.noCache {
		w, f := m.LoadWord(addr)
		if f != nil {
			return isa.Inst{}, f
		}
		return isa.Decode(w)
	}
	pg := m.readPage(addr)
	cp := pg.code.Load()
	if cp == nil {
		cp = predecode(&pg.data)
		pg.code.Store(cp)
	}
	m.fpn, m.fcp = addr>>PageShift, cp
	i := (addr & pageMask) >> 2
	if cp.bad[i] {
		// Re-decode the raw word to produce the precise error.
		w, _ := m.LoadWord(addr)
		_, err := isa.Decode(w)
		return isa.Inst{}, err
	}
	return cp.ins[i], nil
}

// ReadBytes copies len(dst) bytes starting at addr into dst. It is used by
// the kernel's syscall emulation (e.g. write(2) buffers).
func (m *Memory) ReadBytes(addr uint32, dst []byte) {
	for len(dst) > 0 {
		pg := m.readPage(addr)
		off := addr & pageMask
		n := copy(dst, pg.data[off:])
		dst = dst[n:]
		addr += uint32(n)
	}
}

// WriteBytes copies src into guest memory starting at addr.
func (m *Memory) WriteBytes(addr uint32, src []byte) {
	for len(src) > 0 {
		off := addr & pageMask
		pg := m.writePage(addr, uint32(min(len(src), PageSize-int(off))))
		n := copy(pg.data[off:], src)
		src = src[n:]
		addr += uint32(n)
	}
}

// ReadWords reads n consecutive aligned words starting at addr. It is used
// by SuperPin's signature recorder to capture the top-of-stack window.
func (m *Memory) ReadWords(addr uint32, n int) ([]uint32, *Fault) {
	out := make([]uint32, n)
	for i := range out {
		w, f := m.LoadWord(addr + uint32(i*4))
		if f != nil {
			return nil, f
		}
		out[i] = w
	}
	return out, nil
}
