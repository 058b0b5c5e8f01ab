package mem

import "testing"

func BenchmarkStoreLoadWord(b *testing.B) {
	m := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint32(i*4) & 0xffff
		m.StoreWord(addr, uint32(i))
		if v, _ := m.LoadWord(addr); v != uint32(i) {
			b.Fatal("bad read")
		}
	}
}

func BenchmarkForkCOW(b *testing.B) {
	parent := New()
	for i := uint32(0); i < 64; i++ {
		parent.StoreWord(i*PageSize, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child := parent.Fork()
		// Touch 8 of the 64 shared pages.
		for j := uint32(0); j < 8; j++ {
			child.StoreWord(j*PageSize+8, uint32(i))
		}
		child.Release()
	}
}

// BenchmarkLoadStoreAlternatingPages interleaves loads and stores across
// a stack, a data and a heap page, the access pattern of a guest loop
// that spills to its frame while walking data and heap. Every access
// changes page, so a one-entry TLB would miss on each; the multi-entry
// TLBs keep all three pages resident.
func BenchmarkLoadStoreAlternatingPages(b *testing.B) {
	const (
		stack = 0x00ef_f000 // just below the initial guest stack pointer
		data  = 0x0040_1000 // generated programs' data region
		heap  = 0x0800_2000 // brk heap
	)
	m := New()
	for _, base := range []uint32{stack, data, heap} {
		m.StoreWord(base, 1)
	}
	b.ResetTimer()
	var sum uint32
	for i := 0; i < b.N; i++ {
		off := uint32(i*4) & 0xff
		v, _ := m.LoadWord(data + off)
		m.StoreWord(stack+off, v)
		w, _ := m.LoadWord(heap + off)
		m.StoreWord(data+off, w+1)
		x, _ := m.LoadWord(stack + off)
		m.StoreWord(heap+off, x)
		sum += v + w + x
	}
	benchSink = sum
}

// benchSink keeps benchmark loads live.
var benchSink uint32
