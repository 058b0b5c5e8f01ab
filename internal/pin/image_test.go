package pin

import (
	"testing"

	"superpin/internal/jit"
)

// imageIcount1 returns a setup attaching the engine to ic with one
// counter area, area, and icount1 counting into its first element, the
// shape of the icount1 tool's slice instances.
func imageIcount1(ic *ImageCache, area []uint64) func(*Engine) {
	return func(e *Engine) {
		e.UseImage(ic, [][]uint64{area})
		inlineIcount1(&area[0])(e)
	}
}

// TestAdoptAllocs pins the garbage of adopting a trace resident in the
// image cache: one allocation, the engine's own header, whatever the
// trace's length. TestCompileAllocs pins the build path.
func TestAdoptAllocs(t *testing.T) {
	m, pc := loadCode(t, straightLine(jit.MaxTraceIns))
	ic := NewImageCache()
	builder := NewEngine(DefaultCost())
	imageIcount1(ic, make([]uint64, 1))(builder)
	if _, _, err := builder.compile(m, pc, true); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(DefaultCost())
	imageIcount1(ic, make([]uint64, 1))(e)
	adopt := func() {
		ct, _, err := e.compile(m, pc, true)
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
// one's image cache: it adopts every trace when its tool counts into its
// counter area, and builds what it cannot share: traces across its
// split point, and everything when its counter areas are laid out
// differently. Either way it counts exactly and runs exactly as it does
// on an empty cache. Traces counting into a counter outside the areas
// are never offered.
func TestImageAdoption(t *testing.T) {
	cases := []struct {
		name string
		// second sets up the second engine on ic, counting into area.
		second func(ic *ImageCache, area []uint64) func(*Engine)
		// builds reports whether the second engine's trace builds are
		// what the test expects, given the first engine's.
		builds func(first, second uint64) bool
	}{
		{"shared-area", imageIcount1, func(first, second uint64) bool { return first > 0 && second == 0 }},
		{"split-inside", func(ic *ImageCache, area []uint64) func(*Engine) {
			return func(e *Engine) {
				imageIcount1(ic, area)(e)
				e.SplitPC = 12 // the loop's branch
			}
		}, func(first, second uint64) bool { return second > 0 }},
		{"other-layout", func(ic *ImageCache, area []uint64) func(*Engine) {
			return func(e *Engine) {
				e.UseImage(ic, [][]uint64{area, make([]uint64, 2)})
				inlineIcount1(&area[0])(e)
			}
		}, func(first, second uint64) bool { return second == first }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ic := NewImageCache()
			_, e1 := runToExit(t, tinyLoop, imageIcount1(ic, make([]uint64, 1)))
			got, ref := make([]uint64, 1), make([]uint64, 1)
			p, e := runToExit(t, tinyLoop, c.second(ic, got))
			refP, refE := runToExit(t, tinyLoop, c.second(NewImageCache(), ref))
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
	ic := NewImageCache()
	var n uint64
	runToExit(t, tinyLoop, func(e *Engine) {
		e.UseImage(ic, [][]uint64{make([]uint64, 1)})
		inlineIcount1(&n)(e)
	})
	if n := len(ic.entries); n != 0 {
		t.Errorf("traces counting into a private counter were offered: %d cached", n)
	}
}

// TestImageAdoptionFollowsSharedTranslation: with a Section 8 shared
// translation cache, an engine that hits there weaves that translation,
// and adopts image code only when it was compiled from the very same
// one. Here the shared cache serves the translations an engine with a
// split point cut, while the image cache holds the uncut code another
// engine compiled, so a third engine must weave the cut translations: it
// runs exactly as it does with an empty image cache.
func TestImageAdoptionFollowsSharedTranslation(t *testing.T) {
	tc, ic := jit.NewTraceCache(), NewImageCache()
	engine := func(tc *jit.TraceCache, ic *ImageCache, split uint32) func(*Engine) {
		return func(e *Engine) {
			imageIcount1(ic, make([]uint64, 1))(e)
			e.Shared, e.SharedBarrier, e.SplitPC = tc, true, split
		}
	}
	_, uncut := runToExit(t, tinyLoop, engine(tc, ic, 0))
	_, cut := runToExit(t, tinyLoop, engine(tc, ic, 12))
	cut.PublishShared()
	uncut.PublishShared()
	p, e := runToExit(t, tinyLoop, engine(tc, ic, 0))

	refTC := jit.NewTraceCache()
	_, refCut := runToExit(t, tinyLoop, engine(refTC, NewImageCache(), 12))
	refCut.PublishShared()
	refP, refE := runToExit(t, tinyLoop, engine(refTC, NewImageCache(), 0))
	if e.Stats().TraceBuilds == 0 {
		t.Fatal("the third engine adopted the uncut code for every trace")
	}
	st, refSt := e.Stats(), refE.Stats()
	st.TraceBuilds, refSt.TraceBuilds = 0, 0
	if st != refSt || e.CacheStats() != refE.CacheStats() || p.CPUTime != refP.CPUTime {
		t.Errorf("run differs from one on an empty image cache:\n%+v %+v %d\n%+v %+v %d",
			st, e.CacheStats(), p.CPUTime, refSt, refE.CacheStats(), refP.CPUTime)
	}
}
