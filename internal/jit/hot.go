package jit

// Second-tier ("hot") trace artifacts. Once a trace's dispatch count
// crosses the engine's hotness threshold, the pin engine promotes it:
// using the measured exit profile (prof.ExitHist) and the load-time
// static analysis it derives a HotTrace — per-superblock register
// writeback masks for host-local register caching and a preferred
// hot-successor link. Everything in a HotTrace is host-side
// execution strategy: virtual-cycle results are byte-identical with the
// hot tier on or off (`spbench -exp diff`'s nohottier arm proves it).
//
// Lifetime and invalidation mirror the first tier exactly: a HotTrace
// hangs off its CompiledTrace, so a whole-cache Flush drops both
// together, and the hot-successor pointer is epoch-tagged like a
// traceLink — a link recorded before the last flush targets evicted code
// and is cleared instead of followed.

// HotTrace is the second-tier compilation artifact attached to a promoted
// CompiledTrace.
type HotTrace struct {
	// WB[i] is the register writeback mask for Sblocks[i] when the run
	// executes on a host-local register file (cpu.ExecBlockCached): the
	// static written-set of the run plus bit 0. Zero means the run was
	// not promoted to register caching and stays on the shared-state
	// executor (bit 0 — r0, hard-wired zero and harmless to write back —
	// is always set in a valid mask, so zero is never ambiguous).
	// Register caching requires the analysis to cover the run (see the
	// DESIGN.md soundness argument for why liveness gates eligibility
	// but never narrows WB below the written-set).
	WB []uint32
	// NextPC is the measured hottest trace exit target (0 when the trace
	// exits nowhere dominant), the successor the promoted layout treats
	// as the fall-through. Cold exits stay on the first-tier link cache.
	NextPC uint32

	next      *CompiledTrace
	nextEpoch uint64
}

// SetNext records the resolved hot-successor trace, tagged with the code
// cache epoch that validates it.
func (h *HotTrace) SetNext(next *CompiledTrace, epoch uint64) {
	h.next = next
	h.nextEpoch = epoch
}

// Next returns the resolved hot-successor trace, or nil when none is
// recorded. A successor recorded before the last cache flush was evicted
// with the rest of the cache, so it is cleared and reported via stale
// rather than followed — the same contract as CompiledTrace.Link.
func (h *HotTrace) Next(epoch uint64) (next *CompiledTrace, stale bool) {
	if h.next == nil {
		return nil, false
	}
	if h.nextEpoch != epoch {
		h.next = nil
		return nil, true
	}
	return h.next, false
}
