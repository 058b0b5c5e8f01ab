package mem

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWordRoundTrip(t *testing.T) {
	m := New()
	f := func(addr, v uint32) bool {
		addr &^= 3
		if fault := m.StoreWord(addr, v); fault != nil {
			return false
		}
		got, fault := m.LoadWord(addr)
		return fault == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestByteWordConsistency(t *testing.T) {
	m := New()
	if f := m.StoreWord(0x1000, 0x11223344); f != nil {
		t.Fatal(f)
	}
	want := []byte{0x44, 0x33, 0x22, 0x11} // little endian
	for i, w := range want {
		b, f := m.LoadByte(0x1000 + uint32(i))
		if f != nil || b != w {
			t.Fatalf("byte %d = %#x (fault %v), want %#x", i, b, f, w)
		}
	}
}

func TestMisalignedFaults(t *testing.T) {
	m := New()
	if _, f := m.LoadWord(2); f == nil {
		t.Error("misaligned load did not fault")
	}
	if f := m.StoreWord(1, 0); f == nil {
		t.Error("misaligned store did not fault")
	}
	if f := m.StoreWord(1, 0); f == nil || f.Error() == "" {
		t.Error("fault Error() empty")
	}
}

func TestZeroFill(t *testing.T) {
	m := New()
	v, f := m.LoadWord(0xdeadbe00)
	if f != nil || v != 0 {
		t.Fatalf("fresh page read = %d, %v", v, f)
	}
	// Pure reads must not materialize backing pages: sparse reads would
	// otherwise bloat every image and inflate fork costs.
	if m.TouchedPages != 0 || m.Pages() != 0 {
		t.Fatalf("pure read materialized: TouchedPages=%d Pages=%d, want 0 0",
			m.TouchedPages, m.Pages())
	}
	// A write to the same page materializes it and reads back correctly.
	if f := m.StoreWord(0xdeadbe04, 7); f != nil {
		t.Fatal(f)
	}
	if m.TouchedPages != 1 || m.Pages() != 1 {
		t.Fatalf("after write: TouchedPages=%d Pages=%d, want 1 1", m.TouchedPages, m.Pages())
	}
	if v, _ := m.LoadWord(0xdeadbe00); v != 0 {
		t.Fatalf("zero word after page write = %d", v)
	}
	if v, _ := m.LoadWord(0xdeadbe04); v != 7 {
		t.Fatalf("written word = %d, want 7", v)
	}
}

func TestSparseReadsDoNotBloat(t *testing.T) {
	m := New()
	buf := make([]byte, 64)
	for i := uint32(0); i < 1000; i++ {
		m.ReadBytes(i*PageSize, buf)
		if _, f := m.LoadByte(i*PageSize + 99); f != nil {
			t.Fatal(f)
		}
	}
	if m.Pages() != 0 || m.TouchedPages != 0 {
		t.Fatalf("sparse reads materialized %d pages (touched %d)", m.Pages(), m.TouchedPages)
	}
}

func TestForkIsolation(t *testing.T) {
	parent := New()
	parent.StoreWord(0x100, 42)
	child := parent.Fork()

	// Child sees parent's data.
	if v, _ := child.LoadWord(0x100); v != 42 {
		t.Fatalf("child read %d, want 42", v)
	}
	// Child write does not affect parent.
	child.StoreWord(0x100, 99)
	if v, _ := parent.LoadWord(0x100); v != 42 {
		t.Fatalf("parent read %d after child write, want 42", v)
	}
	if v, _ := child.LoadWord(0x100); v != 99 {
		t.Fatalf("child read %d after own write, want 99", v)
	}
	// Parent write after fork does not affect child.
	parent.StoreWord(0x104, 7)
	// 0x104 is on the same (already-copied-by-child? no: child copied its
	// own page; parent still owns original which the child no longer
	// shares) page.
	if v, _ := child.LoadWord(0x104); v != 0 {
		t.Fatalf("child sees parent's post-fork write: %d", v)
	}
}

func TestForkCopyAccounting(t *testing.T) {
	parent := New()
	for i := uint32(0); i < 8; i++ {
		parent.StoreWord(i*PageSize, i)
	}
	child := parent.Fork()
	if child.SharedPages() != 8 {
		t.Fatalf("SharedPages = %d, want 8", child.SharedPages())
	}
	before := child.CopyEvents
	for i := uint32(0); i < 3; i++ {
		child.StoreWord(i*PageSize+4, 1)
	}
	if got := child.CopyEvents - before; got != 3 {
		t.Fatalf("CopyEvents delta = %d, want 3", got)
	}
	// Writing the same pages again must not copy again.
	for i := uint32(0); i < 3; i++ {
		child.StoreWord(i*PageSize+8, 2)
	}
	if got := child.CopyEvents - before; got != 3 {
		t.Fatalf("CopyEvents after rewrite = %d, want 3", got)
	}
	_ = child
}

func TestForkChainCopyOnWrite(t *testing.T) {
	a := New()
	a.StoreWord(0, 1)
	b := a.Fork()
	c := b.Fork()
	// Page shared by three images. Writing in b should copy once; a and c
	// still share the original.
	b.StoreWord(0, 2)
	va, _ := a.LoadWord(0)
	vb, _ := b.LoadWord(0)
	vc, _ := c.LoadWord(0)
	if va != 1 || vb != 2 || vc != 1 {
		t.Fatalf("a=%d b=%d c=%d, want 1 2 1", va, vb, vc)
	}
}

func TestRelease(t *testing.T) {
	a := New()
	a.StoreWord(0, 1)
	b := a.Fork()
	if a.SharedPages() != 1 {
		t.Fatalf("SharedPages = %d, want 1", a.SharedPages())
	}
	b.Release()
	if a.SharedPages() != 0 {
		t.Fatalf("after Release, SharedPages = %d, want 0", a.SharedPages())
	}
	// Write in a must no longer count as a COW copy.
	before := a.CopyEvents
	a.StoreWord(0, 5)
	if a.CopyEvents != before {
		t.Fatal("write after Release still performed a COW copy")
	}
}

func TestReadWriteBytesAcrossPages(t *testing.T) {
	m := New()
	data := make([]byte, 3*PageSize+17)
	r := rand.New(rand.NewSource(2))
	r.Read(data)
	start := uint32(PageSize - 5) // straddle boundaries
	m.WriteBytes(start, data)
	got := make([]byte, len(data))
	m.ReadBytes(start, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], data[i])
		}
	}
}

func TestReadWords(t *testing.T) {
	m := New()
	for i := uint32(0); i < 10; i++ {
		m.StoreWord(0x200+i*4, i*i)
	}
	ws, f := m.ReadWords(0x200, 10)
	if f != nil {
		t.Fatal(f)
	}
	for i, w := range ws {
		if w != uint32(i*i) {
			t.Fatalf("word %d = %d, want %d", i, w, i*i)
		}
	}
	if _, f := m.ReadWords(0x201, 2); f == nil {
		t.Error("misaligned ReadWords did not fault")
	}
}

func TestForkSharesUntouchedPagesByReference(t *testing.T) {
	parent := New()
	for i := uint32(0); i < 100; i++ {
		parent.StoreWord(i*PageSize, i)
	}
	child := parent.Fork()
	if child.Pages() != 100 {
		t.Fatalf("child pages = %d, want 100", child.Pages())
	}
	// Reading in the child must not copy anything.
	for i := uint32(0); i < 100; i++ {
		child.LoadWord(i * PageSize)
	}
	if child.CopyEvents != 0 {
		t.Fatalf("reads caused %d copies", child.CopyEvents)
	}
}

// TestWatchCodeLogsStores: stores into a watched page — word, byte and
// WriteBytes, materialized or not, before and after a fork — are logged
// with their byte ranges and advance CopyEvents but not Copies, never
// through a cached write entry; stores elsewhere are not logged.
func TestWatchCodeLogsStores(t *testing.T) {
	m := New()
	m.StoreWord(0x1000, 1)    // materialized and in the write TLB
	m.WatchCode(0x1ff8, 0x10) // spans 0x1000's page and the unmapped 0x2000
	var got [][2]uint32
	log := func(lo, hi uint32) { got = append(got, [2]uint32{lo, hi}) }

	m.StoreWord(0x1004, 2)
	m.StoreWord(0x1008, 3) // a second store: no write entry cached it
	m.StoreByte(0x2001, 4)
	m.WriteBytes(0x1ffe, []byte{5, 6, 7, 8})
	m.StoreWord(0x3000, 9) // not watched
	if !m.CodeStoresSince(0, log) {
		t.Fatal("log overflowed")
	}
	want := [][2]uint32{{0x1004, 0x1007}, {0x1008, 0x100b}, {0x2001, 0x2001}, {0x1ffe, 0x1fff}, {0x2000, 0x2001}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("logged %x, want %x", got, want)
	}
	if m.CodeGen() != 5 || m.CopyEvents != 5 || m.Copies != 0 {
		t.Fatalf("CodeGen %d, CopyEvents %d, Copies %d", m.CodeGen(), m.CopyEvents, m.Copies)
	}

	// After a fork the parent's store copies the page and is logged; the
	// child watches nothing.
	child := m.Fork()
	m.StoreWord(0x1000, 10)
	child.StoreWord(0x1000, 11)
	if m.CodeGen() != 6 || m.Copies != 1 || m.CopyEvents != 7 || child.CodeGen() != 0 {
		t.Fatalf("after fork: CodeGen %d/%d, Copies %d, CopyEvents %d", m.CodeGen(), child.CodeGen(), m.Copies, m.CopyEvents)
	}

	// A watched range may wrap past the top of the address space.
	m.WatchCode(0xfffffff8, 16)
	gen := m.CodeGen()
	m.StoreWord(0x4, 1)
	if m.CodeGen() != gen+1 {
		t.Fatal("store into the wrapped range's low page was not logged")
	}

	// A reader further behind than the log keeps must assume everything.
	for i := 0; i < codeLogSize; i++ {
		m.StoreWord(0x1000, uint32(i))
	}
	if m.CodeStoresSince(6, log) || !m.CodeStoresSince(7, func(uint32, uint32) {}) {
		t.Fatal("log window wrong")
	}
}
