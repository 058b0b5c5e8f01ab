package pin

import (
	"testing"

	"superpin/internal/kernel"
)

// hotFlushSrc interleaves a hot inner loop (promotes quickly at a low
// threshold) with a long cold routine whose compilation overflows a tiny
// code cache: every outer iteration the promoted inner trace is evicted
// by a whole-cache flush, recompiled cold, and promoted again. Any stale
// second-tier state surviving a flush — a hot-successor link into
// evicted code, a dangling writeback mask — would make the hot run
// diverge from the -nohottier reference below.
const hotFlushSrc = `
	li r10, 0
	li r11, 200
outer:
	li r12, 0
	li r13, 64
inner:
	addi r12, r12, 1
	add r14, r14, r12
	xor r15, r15, r14
	blt r12, r13, inner
	call cold
	addi r10, r10, 1
	blt r10, r11, outer
	li r1, 1
	andi r2, r14, 255
	syscall
cold:
	addi r20, r20, 1
	addi r20, r20, 2
	addi r20, r20, 3
	addi r20, r20, 4
	addi r20, r20, 5
	addi r20, r20, 6
	addi r20, r20, 7
	addi r20, r20, 8
	addi r20, r20, 9
	addi r20, r20, 10
	addi r20, r20, 11
	addi r20, r20, 12
	addi r20, r20, 13
	addi r20, r20, 14
	addi r20, r20, 15
	addi r20, r20, 16
	addi r20, r20, 17
	addi r20, r20, 18
	addi r20, r20, 19
	addi r20, r20, 20
	addi r20, r20, 21
	addi r20, r20, 22
	addi r20, r20, 23
	addi r20, r20, 24
	ret
`

// TestHotTierFlushDifferential: a CodeCache.Flush mid-run must
// invalidate second-tier traces exactly like first-tier ones. The hot
// run (tiny cache, low promotion threshold) repeatedly promotes, gets
// flushed, and re-promotes; its virtual outcome must be byte-identical
// to the same run with the hot tier off.
func TestHotTierFlushDifferential(t *testing.T) {
	kcfg := kernel.DefaultConfig()
	kcfg.MaxCycles = 2_000_000_000
	var states [2]fastModeState
	for i, nohot := range []bool{false, true} {
		cost := DefaultCost()
		cost.CacheCapacity = 48
		cost.HotThreshold = 8
		cost.NoHotTier = nohot
		s := setupMode(t, hotFlushSrc, kcfg, cost, nil)
		if err := s.k.Run(); err != nil {
			t.Fatal(err)
		}
		states[i] = s
	}
	hot, ref := states[0], states[1]

	// Virtual outcome: identical in every observable dimension. Stats are
	// compared modulo the host-only hot counters (normStats) and the
	// link-cache traffic the hot links displace (normCacheStats).
	compareModes(t, hot, ref)

	st, cs := hot.e.Stats(), hot.e.CacheStats()
	if cs.Flushes == 0 {
		t.Fatal("test expects cache flushes; lower capacity or grow the cold routine")
	}
	if st.HotPromotions < 2 {
		t.Fatalf("want repeated promotion across flushes, got %d", st.HotPromotions)
	}
	if refSt := ref.e.Stats(); refSt.HotPromotions != 0 || refSt.HotIns != 0 || refSt.HotLinkHits != 0 {
		t.Fatalf("-nohottier run reported hot-tier activity: %+v", refSt)
	}
}
