package pin

import (
	"time"

	"superpin/internal/jit"
)

// Second-tier ("hot") trace compilation. The first tier compiles every
// trace the same way; the second tier waits until a trace has proven
// itself hot — its dispatch count crossed the promotion threshold — and
// then derives a cheaper host-side execution strategy from two profiles
// it already has for free: the trace's measured exit histogram
// (prof.ExitHist, maintained by leaveTrace) and the load-time static
// analysis (internal/sa).
//
// Promotion NEVER rebuilds or re-instruments the trace. The compiled
// instruction sequence, its analysis calls and its superblock index are
// the units of virtual-cycle accounting; a promoted trace attaches a
// jit.HotTrace describing how the host executes that same sequence. That
// is what keeps the hot tier byte-identical on the virtual timeline
// (`spbench -exp diff`'s nohottier arm proves it for every benchmark,
// under serial Pin and SuperPin).

// DefaultHotThreshold is the per-trace dispatch count that triggers
// promotion when CostModel.HotThreshold is unset. Low enough that
// benchmark loops promote within their first timeslice, high enough that
// cold code never pays the promotion pass.
const DefaultHotThreshold = 32

// minCachedRunIns is the shortest superblock run worth register caching:
// a cached run pays a full register-file copy-in plus a masked writeback,
// which the per-instruction savings must amortize.
const minCachedRunIns = 4

// tickHot advances a trace's hotness accounting by one dispatch and
// promotes it when the threshold is crossed. Counting stops at promotion
// (the counters feed the promotion decision and the exit profile is
// frozen into the hot layout; nothing reads them afterwards). Dispatch
// counts are a pure function of the guest's virtual execution, so
// promotion points — and everything derived from them — are identical in
// every execution mode.
func (e *Engine) tickHot(ct *jit.CompiledTrace) {
	if !e.hotTier || ct.Hot != nil {
		return
	}
	ct.Execs++
	if ct.Execs >= e.hotThr {
		e.promote(ct)
	}
}

// promote builds the second-tier artifact for ct and attaches it.
//
//   - Layout: the measured hottest exit target becomes the preferred
//     fall-through successor (HotTrace.NextPC); its link resolves via the
//     ordinary dispatch flow and is epoch-tagged like every trace link.
//   - Register caching: each superblock run long enough to amortize the
//     copy, and fully covered by the static analysis, gets a writeback
//     mask — the run's exact static written-set, never narrowed by
//     liveness. Liveness only gates eligibility: an analysis that cannot
//     summarize the run cannot vouch for its decode, so the run stays on
//     the shared-state executor. (Narrowing by liveness would be unsound:
//     SuperPin's slice-boundary fullMatch reads every architectural
//     register, dead or not.)
func (e *Engine) promote(ct *jit.CompiledTrace) {
	var promoteStart time.Time
	if e.mPromote != nil {
		promoteStart = time.Now()
	}
	h := &jit.HotTrace{}
	hotExit, exitCount := ct.Exits.Hottest()
	if exitCount > 0 {
		h.NextPC = hotExit
	}
	if e.SA != nil && len(ct.Sblocks) > 0 {
		h.WB = make([]uint32, len(ct.Sblocks))
		for i := range ct.Sblocks {
			sb := &ct.Sblocks[i]
			n := len(sb.Block)
			if n < minCachedRunIns {
				continue
			}
			if _, _, ok := e.SA.Summary(ct.Ins[sb.Start].Addr, n); !ok {
				continue
			}
			h.WB[i] = writtenMask(ct.Ins[sb.Start : sb.Start+n])
		}
	}
	ct.Hot = h
	if e.stats.HotPromotions == 0 {
		e.stats.FirstPromoDispatch = e.stats.Dispatches
	}
	e.stats.HotPromotions++
	if e.mPromote != nil {
		e.mPromote.Observe(uint64(time.Since(promoteStart)))
	}
}

// applyWarm seeds a freshly compiled trace's hotness counters from the
// warm-start artifact and promotes immediately when a prior execution
// already proved the trace hot. Applied once per compile, right after
// cache insertion, so a warm run reaches its second-tier layout at the
// first dispatch instead of after HotThreshold of them. The seed only
// moves the promotion point earlier on the host timeline; the virtual
// timeline never observes it (the differential's warm arm proves
// byte-identity).
func (e *Engine) applyWarm(ct *jit.CompiledTrace) {
	w, ok := e.Warm.Lookup(ct.Addr)
	if !ok {
		return
	}
	ct.Execs = w.Execs
	ct.Exits.Seed(w.HotExit, w.HotCount)
	if ct.Execs >= e.hotThr {
		e.promote(ct)
		e.stats.WarmPromotions++
	}
}

// HarvestWarm folds the hotness counters of every trace resident in the
// engine's code cache into seed, for publication back to the artifact
// store at run end. Traces evicted by cache flushes before harvest are
// simply not counted — the seed is an accelerator, not a ledger.
func (e *Engine) HarvestWarm(seed *jit.WarmSeed) {
	seed.Harvest(e.cache)
}

// writtenMask returns the static written-register set of a compiled
// instruction run, with bit 0 (r0, the hard-wired zero) always set so a
// valid mask is never zero — the dispatch loop uses mask zero to mean
// "run not register-cached".
func writtenMask(ins []jit.CompiledIns) uint32 {
	m := uint32(1)
	for i := range ins {
		if d := ins[i].Inst.DstReg(); d >= 0 {
			m |= 1 << uint(d)
		}
	}
	return m
}
