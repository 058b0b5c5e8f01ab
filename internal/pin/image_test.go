package pin

import (
	"testing"

	"superpin/internal/jit"
	"superpin/internal/kernel"
)

// imageIcount1 returns a setup attaching the engine to tc as the given
// slice, with one counter area, area, and icount1 counting into its
// first element, the shape of the icount1 tool's slice instances. share
// turns on Section 8 sharing of translations.
func imageIcount1(tc *jit.TraceCache, slice int, share bool, area []uint64) func(*Engine) {
	return func(e *Engine) {
		e.UseCache(tc, slice, [][]uint64{area}, share)
		inlineIcount1(&area[0])(e)
	}
}

// TestAdoptAllocs pins the garbage of adopting a trace resident in the
// trace cache: one allocation, the engine's own header, whatever the
// trace's length. TestCompileAllocs pins the build path.
func TestAdoptAllocs(t *testing.T) {
	m, pc := loadCode(t, straightLine(jit.MaxTraceIns))
	tc := jit.NewTraceCache()
	builder := NewEngine(DefaultCost())
	imageIcount1(tc, 1, false, make([]uint64, 1))(builder)
	if _, _, err := builder.compile(m, pc, 0, true); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(DefaultCost())
	imageIcount1(tc, 2, false, make([]uint64, 1))(e)
	adopt := func() {
		ct, _, err := e.compile(m, pc, 0, true)
		if err != nil || ct.NumIns() != jit.MaxTraceIns || len(ct.Sblocks) != 1 {
			t.Fatalf("adopt: %v", err)
		}
		e.cache.Insert(ct)
	}
	allocs := testing.AllocsPerRun(100, adopt)
	if n := e.Stats().TraceBuilds; n != 0 {
		t.Fatalf("the adopting engine built %d traces, want 0", n)
	}
	if allocs > 1 {
		t.Errorf("adopting a resident trace allocates %v times, want <= 1", allocs)
	}
}

// TestImageAdoption runs tinyLoop on a second engine sharing the first
// one's trace cache: it adopts every trace when its tool counts into its
// counter area, and builds what it cannot share: traces across its
// split point, and everything when its counter areas are laid out
// differently. Either way it counts exactly and runs exactly as it does
// on an empty cache. Traces counting into a counter outside the areas
// are never offered.
func TestImageAdoption(t *testing.T) {
	cases := []struct {
		name string
		// second sets up the second engine on tc, counting into area.
		second func(tc *jit.TraceCache, area []uint64) func(*Engine)
		// builds reports whether the second engine's trace builds are
		// what the test expects, given the first engine's.
		builds func(first, second uint64) bool
	}{
		{"shared-area", func(tc *jit.TraceCache, area []uint64) func(*Engine) {
			return imageIcount1(tc, 2, false, area)
		}, func(first, second uint64) bool { return first > 0 && second == 0 }},
		{"split-inside", func(tc *jit.TraceCache, area []uint64) func(*Engine) {
			return func(e *Engine) {
				imageIcount1(tc, 2, false, area)(e)
				e.SplitPC = 12 // the loop's branch
			}
		}, func(first, second uint64) bool { return second > 0 }},
		{"other-layout", func(tc *jit.TraceCache, area []uint64) func(*Engine) {
			return func(e *Engine) {
				e.UseCache(tc, 2, [][]uint64{area, make([]uint64, 2)}, false)
				inlineIcount1(&area[0])(e)
			}
		}, func(first, second uint64) bool { return second == first }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tc := jit.NewTraceCache()
			_, e1 := runToExit(t, tinyLoop, imageIcount1(tc, 1, false, make([]uint64, 1)))
			got, ref := make([]uint64, 1), make([]uint64, 1)
			p, e := runToExit(t, tinyLoop, c.second(tc, got))
			refP, refE := runToExit(t, tinyLoop, c.second(jit.NewTraceCache(), ref))
			b1, b2 := e1.Stats().TraceBuilds, e.Stats().TraceBuilds
			if !c.builds(b1, b2) {
				t.Errorf("trace builds: first engine %d, second %d", b1, b2)
			}
			if got[0] != p.InsCount || got[0] != ref[0] {
				t.Errorf("count %d, executed %d, on an empty cache %d", got[0], p.InsCount, ref[0])
			}
			st, refSt := e.Stats(), refE.Stats()
			st.TraceBuilds, refSt.TraceBuilds = 0, 0
			if st != refSt || e.CacheStats() != refE.CacheStats() || p.CPUTime != refP.CPUTime {
				t.Errorf("run differs from one on an empty cache:\n%+v %+v %d\n%+v %+v %d",
					st, e.CacheStats(), p.CPUTime, refSt, refE.CacheStats(), refP.CPUTime)
			}
		})
	}

	// A private counter keeps every trace out of the cache.
	tc := jit.NewTraceCache()
	var n uint64
	runToExit(t, tinyLoop, func(e *Engine) {
		e.UseCache(tc, 1, [][]uint64{make([]uint64, 1)}, false)
		inlineIcount1(&n)(e)
	})
	for pc := uint32(0); pc < 7*4; pc += 4 { // tinyLoop's instructions
		if ct, _ := tc.Code(pc); ct != nil {
			t.Errorf("a trace counting into a private counter was offered at %#x", pc)
		}
	}
}

// TestImageAdoptionFollowsSharedTranslation: with Section 8 sharing, an
// engine that sees a translation weaves it, and adopts code only when
// it was compiled from that very translation. Here the cache holds the
// uncut code of an engine without sharing, and the translations an
// engine with a split point cut, published to a third engine that starts
// after both. The third engine must weave the cut translations: it runs
// exactly as it does after the cutting engine alone.
func TestImageAdoptionFollowsSharedTranslation(t *testing.T) {
	area := func() []uint64 { return make([]uint64, 1) }
	cutThenThird := func(tc *jit.TraceCache) (*kernel.Proc, *Engine) {
		runFrom(t, tinyLoop, 1_000_000, func(e *Engine) {
			imageIcount1(tc, 1, true, area())(e)
			e.SplitPC = 12
		})
		return runFrom(t, tinyLoop, 2_000_000, imageIcount1(tc, 3, true, area()))
	}
	tc := jit.NewTraceCache()
	runToExit(t, tinyLoop, imageIcount1(tc, 2, false, area()))
	p, e := cutThenThird(tc)
	refP, refE := cutThenThird(jit.NewTraceCache())
	if e.Stats().TraceBuilds == 0 {
		t.Fatal("the third engine adopted the uncut code for every trace")
	}
	st, refSt := e.Stats(), refE.Stats()
	st.TraceBuilds, refSt.TraceBuilds = 0, 0
	if st != refSt || e.CacheStats() != refE.CacheStats() || p.CPUTime != refP.CPUTime {
		t.Errorf("run differs from one after the cutting engine alone:\n%+v %+v %d\n%+v %+v %d",
			st, e.CacheStats(), p.CPUTime, refSt, refE.CacheStats(), refP.CPUTime)
	}
}
