package pin

import (
	"testing"

	"superpin/internal/asm"
	"superpin/internal/jit"
	"superpin/internal/kernel"
	"superpin/internal/sa"
)

// saTestSrc is a counted loop with a provable exit. Its bound r11 is
// loaded once and never written again, so the value analysis can decide
// a comparison on it at every block head after the first.
const saTestSrc = `
	.entry main
main:
	li r10, 0
	li r11, 2000
loop:
	addi r12, r10, 3
	add r13, r12, r12
	xor r14, r13, r10
	addi r10, r10, 1
	blt r10, r11, loop
	li r1, 1
	li r2, 0
	syscall
`

// icount2Instrument is the boundary-probe shape SuperPin uses: one
// inlined predicate on the head instruction of every basic block,
// leaving the rest of the block uninstrumented (so superblock batching
// still has runs to seal).
func icount2Instrument(probes *uint64) func(*Engine) {
	return func(e *Engine) {
		e.AddTraceInstrumenter(func(tr *Trace) {
			for _, bbl := range tr.Bbls() {
				bbl.InsHead().InsertIfCall(Before, func(c *Ctx) bool {
					*probes++
					return false
				})
			}
		})
	}
}

// TestSAVirtualIdentity runs identical If-call instrumentation with and
// without the analysis attached. Virtual outcomes and probe counts must
// be identical — the analysis only changes host-side work — and the
// analysis-backed predecode sharing must engage.
func TestSAVirtualIdentity(t *testing.T) {
	prog, err := asm.Assemble(saTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	an := sa.Analyze(prog)
	if err := an.Err(); err != nil {
		t.Fatal(err)
	}

	kcfg := kernel.DefaultConfig()
	kcfg.MaxCycles = 2_000_000_000
	var probesSA, probesRef uint64

	withSA := setupMode(t, saTestSrc, kcfg, DefaultCost(), func(e *Engine) {
		e.SA = an
		icount2Instrument(&probesSA)(e)
	})
	if err := withSA.k.Run(); err != nil {
		t.Fatal(err)
	}
	ref := setupMode(t, saTestSrc, kcfg, DefaultCost(), icount2Instrument(&probesRef))
	if err := ref.k.Run(); err != nil {
		t.Fatal(err)
	}

	// Byte-identical guest outcomes.
	if withSA.p.Regs != ref.p.Regs {
		t.Errorf("registers diverged:\nsa  %+v\nref %+v", withSA.p.Regs, ref.p.Regs)
	}
	if withSA.p.InsCount != ref.p.InsCount || withSA.p.CPUTime != ref.p.CPUTime ||
		withSA.p.ExitCode != ref.p.ExitCode {
		t.Errorf("accounting diverged: sa ins=%d cpu=%d exit=%d, ref ins=%d cpu=%d exit=%d",
			withSA.p.InsCount, withSA.p.CPUTime, withSA.p.ExitCode,
			ref.p.InsCount, ref.p.CPUTime, ref.p.ExitCode)
	}
	if probesSA != probesRef || probesSA == 0 {
		t.Errorf("probe counts diverged: sa %d, ref %d", probesSA, probesRef)
	}

	ss, rs := withSA.e.Stats(), ref.e.Stats()
	if ss.IfCalls != rs.IfCalls || ss.IfCalls == 0 {
		t.Errorf("IfCalls: sa %d, ref %d", ss.IfCalls, rs.IfCalls)
	}
	// The analysis-backed predecode sharing must have engaged, and the
	// reference engine must not report any SA activity.
	if ss.SASharedRuns == 0 {
		t.Error("SASharedRuns = 0: superblock sealing never borrowed the shared predecode")
	}
	if rs.SASharedRuns != 0 || rs.SAPrivateRuns != 0 {
		t.Errorf("engine without analysis reported SA runs: %+v", rs)
	}
}

// TestSAAnnotateFolds checks fold stamping directly: a declared
// predicate on the loop bound is decided by the value analysis at the
// block heads it can prove, every stamped verdict matches ProveCond, and
// the folded run fires the then-routine exactly as often as a run that
// evaluates every predicate.
func TestSAAnnotateFolds(t *testing.T) {
	prog, err := asm.Assemble(saTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	an := sa.Analyze(prog)
	if err := an.Err(); err != nil {
		t.Fatal(err)
	}
	cond := jit.Cond{Kind: jit.CondEQ, Reg: 11, Imm: 2000}
	instrument := func(evals, hits *uint64) func(*Engine) {
		return func(e *Engine) {
			e.AddTraceInstrumenter(func(tr *Trace) {
				for _, bbl := range tr.Bbls() {
					bbl.InsHead().InsertIfCondCall(Before, func(c *Ctx) bool {
						*evals++
						return c.Regs.R[11] == 2000
					}, cond)
					bbl.InsHead().InsertThenCall(Before, func(*Ctx) { *hits++ })
				}
			})
		}
	}
	var evalsSA, hitsSA, evalsRef, hitsRef uint64
	s := setupMode(t, saTestSrc, kernel.DefaultConfig(), DefaultCost(), func(e *Engine) {
		e.SA = an
		instrument(&evalsSA, &hitsSA)(e)
	})
	if err := s.k.Run(); err != nil {
		t.Fatal(err)
	}
	ref := setupMode(t, saTestSrc, kernel.DefaultConfig(), DefaultCost(), instrument(&evalsRef, &hitsRef))
	if err := ref.k.Run(); err != nil {
		t.Fatal(err)
	}

	folded := 0
	s.e.cache.Traces(func(ct *jit.CompiledTrace) {
		for i := range ct.Ins {
			ci := &ct.Ins[i]
			for _, c := range ci.Before {
				res, proven := an.ProveCond(ci.Addr, sa.Cond{Kind: sa.CondKind(cond.Kind), Reg: cond.Reg, Imm: cond.Imm})
				want := jit.FoldUnknown
				if proven {
					want = jit.FoldFalse
					if res {
						want = jit.FoldTrue
					}
					folded++
				}
				if c.Fold != want {
					t.Errorf("%#x: fold %v, want %v (ProveCond %v, proven %v)", ci.Addr, c.Fold, want, res, proven)
				}
			}
		}
	})
	st := s.e.Stats()
	if folded == 0 || st.FoldedSites == 0 || st.FoldedPreds == 0 {
		t.Fatalf("nothing folded: %d stamped sites in the cache, stats %+v", folded, st)
	}
	if evalsSA+st.FoldedPreds != st.IfCalls || evalsRef != ref.e.Stats().IfCalls {
		t.Errorf("evaluations: sa %d + folded %d, want %d IfCalls; ref %d of %d",
			evalsSA, st.FoldedPreds, st.IfCalls, evalsRef, ref.e.Stats().IfCalls)
	}
	if hitsSA != hitsRef || hitsSA == 0 {
		t.Errorf("then-calls diverged: sa %d, ref %d", hitsSA, hitsRef)
	}
	if s.p.CPUTime != ref.p.CPUTime {
		t.Errorf("virtual time diverged: sa %d, ref %d", s.p.CPUTime, ref.p.CPUTime)
	}
}
