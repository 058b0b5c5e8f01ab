package pin

import (
	"fmt"
	"slices"

	"superpin/internal/jit"
	"superpin/internal/mem"
)

// SetPredicateWrapper installs wrap as the instrumentation-time predicate
// hook (wrapPredicate) and returns a function restoring the previous one.
// Callers must not run in parallel with other tests that instrument.
func SetPredicateWrapper(wrap func(PredicateFn) PredicateFn) (restore func()) {
	prev := wrapPredicate
	wrapPredicate = wrap
	return func() { wrapPredicate = prev }
}

// SetImageSeam sets the code-adoption seam (imageSeam) and returns a
// function restoring the previous one. noAdopt turns adoption off. check,
// when non-nil, rebuilds every adopted trace on the adopting engine, as
// that engine would have built it, and receives the trace's entry PC and
// the first difference between the adopted and the rebuilt code ("" when
// they are identical). Callers must not run in parallel with other tests
// that run SuperPin.
func SetImageSeam(noAdopt bool, check func(pc uint32, diff string)) (restore func()) {
	prev := imageSeam
	imageSeam.noAdopt = noAdopt
	imageSeam.adopted = nil
	if check != nil {
		imageSeam.adopted = func(e *Engine, m *mem.Memory, st *jit.Trace, ct *jit.CompiledTrace) {
			check(ct.Addr, e.rebuildDiff(m, st, ct))
		}
	}
	return func() { imageSeam = prev }
}

// rebuildDiff builds the trace at ct's address on e — from st when the
// engine adopted on a shared-translation hit — instruments and seals it,
// and describes the first difference from ct's code.
func (e *Engine) rebuildDiff(m *mem.Memory, st *jit.Trace, ct *jit.CompiledTrace) string {
	tr := st
	if tr == nil {
		var err error
		if tr, err = jit.BuildTraceSplit(m, ct.Addr, e.SplitPC); err != nil {
			return err.Error()
		}
	}
	return e.codeDiff(ct, e.instrument(tr, !e.Cost.NoFastPath))
}

// codeDiff describes the first difference between a's and b's code, with
// every inline add's slot resolved to the counter it names on e.
func (e *Engine) codeDiff(a, b *jit.CompiledTrace) string {
	if a.Addr != b.Addr || !slices.Equal(a.Ins, b.Ins) {
		return fmt.Sprintf("instructions differ (%d vs %d at %#x)", len(a.Ins), len(b.Ins), a.Addr)
	}
	if len(a.Calls) != len(b.Calls) {
		return fmt.Sprintf("%d calls vs %d", len(a.Calls), len(b.Calls))
	}
	for i := range a.Calls {
		x, y := &a.Calls[i], &b.Calls[i]
		if !x.IsAdd() || !y.IsAdd() {
			return fmt.Sprintf("call %d is not an inline add", i)
		}
		if x.N != y.N || e.ctrs[x.Slot] != e.ctrs[y.Slot] {
			return fmt.Sprintf("call %d adds %d to slot %d vs %d to slot %d", i, x.N, x.Slot, y.N, y.Slot)
		}
	}
	if len(a.Sblocks) != len(b.Sblocks) || !slices.Equal(a.RunAt, b.RunAt) {
		return fmt.Sprintf("%d superblocks vs %d, or their index differs", len(a.Sblocks), len(b.Sblocks))
	}
	for i := range a.Sblocks {
		x, y := &a.Sblocks[i], &b.Sblocks[i]
		if x.Start != y.Start || !slices.Equal(x.Block, y.Block) || !slices.Equal(x.Cum, y.Cum) ||
			!slices.Equal(x.Adds, y.Adds) || !slices.Equal(x.Sites, y.Sites) ||
			(x.Adds != nil && e.ctrs[x.Slot] != e.ctrs[y.Slot]) {
			return fmt.Sprintf("superblock %d differs", i)
		}
	}
	return ""
}
