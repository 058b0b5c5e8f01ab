package mem

import (
	"fmt"
	"math/rand"
	"testing"

	"superpin/internal/isa"
)

// tlbPool is the page-number pool of TestTLBRandomEquivalence: pages that
// collide pairwise in the same TLB slots (pn % tlbSize), so every access
// pattern evicts and refills entries. The first codePages of them hold
// code.
var tlbPool = []uint32{
	0x100, 0x100 + tlbSize, 0x100 + 2*tlbSize, 0x100 + 3*tlbSize,
	0x101, 0x101 + tlbSize, 0x101 + 2*tlbSize,
	0x102,
}

const codePages = 3

// checkTLBInvariants checks the software-TLB invariants of an image: a
// read entry is the current page of its number (the zero page when
// absent), a write entry is the current, private page, and an image with
// caching off holds no entries at all.
func checkTLBInvariants(m *Memory) error {
	for i, e := range m.rtlb {
		if e.pn == invalidPN {
			continue
		}
		if m.noCache {
			return fmt.Errorf("read slot %d holds page %#x with caching off", i, e.pn)
		}
		want := m.pages[e.pn]
		if want == nil {
			want = &zeroPage
		}
		if e.pn%tlbSize != uint32(i) || e.pg != want {
			return fmt.Errorf("read slot %d holds page %#x, not the current page", i, e.pn)
		}
	}
	for i, e := range m.wtlb {
		if e.pn == invalidPN {
			continue
		}
		if m.noCache {
			return fmt.Errorf("write slot %d holds page %#x with caching off", i, e.pn)
		}
		if e.pn%tlbSize != uint32(i) || e.pg != m.pages[e.pn] {
			return fmt.Errorf("write slot %d holds page %#x, not the current page", i, e.pn)
		}
		if r := e.pg.refs.Load(); r != 1 {
			return fmt.Errorf("write slot %d holds page %#x with refs %d", i, e.pn, r)
		}
	}
	return nil
}

// imageState is the observable accounting of one image.
func imageState(m *Memory) string {
	return fmt.Sprintf("copies=%d touched=%d codegen=%d pages=%d shared=%d",
		m.CopyEvents, m.TouchedPages, m.CodeGen(), m.Pages(), m.SharedPages())
}

// TestTLBRandomEquivalence runs seeded random sequences of loads,
// stores, fetches, forks, releases and code watches over images whose
// pages collide in the TLBs, against an identical set of images with
// caching off. Every result and every image's accounting must match
// after every step, and the cached images must keep the TLB invariants.
// The cached side also turns caching off around a store now and then.
func TestTLBRandomEquivalence(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.OpADDI, Rd: 2, Rs1: 2, Imm: 1},
		{Op: isa.OpLW, Rd: 3, Rs1: 29, Imm: 4},
		{Op: isa.OpSW, Rd: 3, Rs1: 29, Imm: -8},
		{Op: isa.OpBNE, Rs1: 2, Rs2: 3, Imm: -2},
		{Op: isa.OpSYSCALL},
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// worlds[0] caches, worlds[1] does not; both see the same ops.
		var worlds [2][]*Memory
		for w := range worlds {
			m := New()
			m.SetCaching(w == 0)
			for _, pn := range tlbPool[:codePages] {
				base := pn << PageShift
				for off := uint32(0); off < 64; off += 4 {
					m.StoreWord(base+off, enc(t, insts[int(off/4)%len(insts)]))
				}
			}
			worlds[w] = []*Memory{m, m.Fork(), m.Fork()}
		}
		for step := 0; step < 4000; step++ {
			n := len(worlds[0])
			img := rng.Intn(n)
			pn := tlbPool[rng.Intn(len(tlbPool))]
			addr := pn<<PageShift | uint32(rng.Intn(32))*4
			val := rng.Uint32()
			if val&1 == 0 {
				// Keep stored words decodable half the time, so fetches
				// after stores into code pages see real instructions.
				val = enc(t, insts[int(val>>1)%len(insts)])
			}
			size := 4 * uint32(1+rng.Intn(4))
			op := rng.Intn(100)
			var got [2]string
			for w := range worlds {
				m := worlds[w][img]
				switch {
				case op < 25:
					v, f := m.LoadWord(addr)
					got[w] = fmt.Sprintf("load %#x = %#x %v", addr, v, f)
				case op < 30:
					v, f := m.LoadByte(addr + uint32(val&3))
					got[w] = fmt.Sprintf("loadbyte %#x = %#x %v", addr, v, f)
				case op < 50:
					got[w] = fmt.Sprintf("store %#x %v", addr, m.StoreWord(addr, val))
				case op < 57:
					got[w] = fmt.Sprintf("storebyte %#x %v", addr, m.StoreByte(addr+uint32(val&3), byte(val)))
				case op < 78:
					in, err := m.FetchInst(addr)
					got[w] = fmt.Sprintf("fetch %#x = %v %v", addr, in, err)
				case op < 85:
					if n < 6 {
						worlds[w] = append(worlds[w], m.Fork())
					}
					got[w] = "fork"
				case op < 92:
					if n > 3 {
						m.Release()
						if err := checkTLBInvariants(m); err != nil {
							t.Fatalf("seed %d step %d: after Release: %v", seed, step, err)
						}
						worlds[w] = append(worlds[w][:img], worlds[w][img+1:]...)
					}
					got[w] = "release"
				case op < 95:
					// The cached side stores with caching briefly off.
					if w == 0 {
						m.SetCaching(false)
					}
					f := m.StoreWord(addr, val)
					if w == 0 {
						m.SetCaching(true)
					}
					got[w] = fmt.Sprintf("uncached store %#x %v", addr, f)
				default:
					// Store, watch, store again: the write entry the first
					// store cached must not let the second skip the
					// code-store log.
					f1 := m.StoreWord(addr, val)
					m.WatchCode(addr, size)
					f2 := m.StoreWord(addr, ^val)
					got[w] = fmt.Sprintf("store+watchcode+store %#x %v %v", addr, f1, f2)
				}
			}
			if got[0] != got[1] {
				t.Fatalf("seed %d step %d: cached %q, uncached %q", seed, step, got[0], got[1])
			}
			for i := range worlds[0] {
				c, u := worlds[0][i], worlds[1][i]
				if sc, su := imageState(c), imageState(u); sc != su {
					t.Fatalf("seed %d step %d image %d after %s: cached %s, uncached %s",
						seed, step, i, got[0], sc, su)
				}
				if err := checkTLBInvariants(c); err != nil {
					t.Fatalf("seed %d step %d image %d after %s: %v", seed, step, i, got[0], err)
				}
			}
		}
	}
}
