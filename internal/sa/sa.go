// Package sa is the guest-code static analysis subsystem: a one-shot
// pass over a linked SVR32 program image.
//
// It provides, in pipeline order:
//
//   - whole-program CFG recovery from the decoded image: basic-block
//     discovery from the entry point and the symbol table, direct
//     branch/jal edge resolution, and a dominator tree over the
//     entry-reachable subgraph (cfg.go, dom.go);
//   - the interprocedural tier: a sparse conditional value propagation
//     that resolves provable indirect transfers into CFG edges, and a
//     call graph over the resolved graph (value.go, callgraph.go);
//   - a guest-binary verifier that rejects malformed images and warns
//     on suspicious ones (verify.go).
//
// No execution mode analyzes the image: SuperPin forks, slices by timer
// and checks signatures, with no load-time analysis step. The verifier
// serves `spasm -lint`, and the repository benchmark times the analysis
// and its serialization (serial.go) as a layer of its own.
package sa

import (
	"fmt"

	"superpin/internal/asm"
	"superpin/internal/cpu"
	"superpin/internal/isa"
)

// Severity classifies a verifier finding.
type Severity uint8

// Severities.
const (
	SevWarn  Severity = iota // suspicious but runnable
	SevError                 // the image is malformed; loading should fail
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Code identifies a verifier rule.
type Code uint8

// Verifier rule codes.
const (
	// CodeUndecodable: a reachable word is not a valid SVR32 encoding.
	CodeUndecodable Code = iota
	// CodeBadTarget: a direct branch or jal targets an address outside
	// the decodable image.
	CodeBadTarget
	// CodeMisaligned: the entry point or a control target is not word
	// aligned.
	CodeMisaligned
	// CodeFallOff: control flow runs off the end of the image.
	CodeFallOff
	// CodeTruncated: control flow reaches trailing bytes that do not
	// form a whole instruction word (a truncated image).
	CodeTruncated
	// CodeStackImbalance: a loop accumulates net stack depth (a back
	// edge arrives at its header with a different stack depth than the
	// header's established one).
	CodeStackImbalance
	// CodeUninitRead: a register is read somewhere in reachable code
	// but written nowhere in the program.
	CodeUninitRead
	// CodeSMCStore: a store's target is statically provable and lies
	// inside the code image (self-modifying code; the engine supports
	// it, so this is flagged, not rejected).
	CodeSMCStore
	// CodeUnreachable: bytes in the image are neither reachable code
	// nor valid encodings (one summary finding per image).
	CodeUnreachable
	// CodeUnreachableFn: a symbol labels a function-shaped body (it
	// contains a return) that no resolved call edge ever reaches and
	// that is unreachable from the entry. Interprocedural tier only.
	CodeUnreachableFn
	// CodeIndirectData: an indirect transfer's target set is statically
	// provable and includes an address that is not a discovered block
	// leader (a jump or call into data). Interprocedural tier only.
	CodeIndirectData
	// CodeCallImbalance: a function provably returns with a nonzero net
	// stack-pointer delta relative to its entry. Interprocedural tier
	// only.
	CodeCallImbalance
)

var codeNames = [...]string{
	CodeUndecodable:    "undecodable",
	CodeBadTarget:      "bad-target",
	CodeMisaligned:     "misaligned",
	CodeFallOff:        "fall-off",
	CodeTruncated:      "truncated",
	CodeStackImbalance: "stack-imbalance",
	CodeUninitRead:     "uninit-read",
	CodeSMCStore:       "smc-store",
	CodeUnreachable:    "unreachable",
	CodeUnreachableFn:  "unreachable-fn",
	CodeIndirectData:   "indirect-data",
	CodeCallImbalance:  "call-imbalance",
}

func (c Code) String() string {
	if int(c) < len(codeNames) {
		return codeNames[c]
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}

// Diag is one verifier finding.
type Diag struct {
	Sev  Severity
	Code Code
	// Addr is the guest address the finding is anchored to (the
	// offending instruction, or 0 for whole-image findings).
	Addr uint32
	Msg  string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s: %s at %#08x: %s", d.Sev, d.Code, d.Addr, d.Msg)
}

// reach levels: a word can be discovered from the entry point (full
// diagnostics) or only from the symbol table (no diagnostics — symbols
// may label data that happens to decode).
const (
	reachNone  uint8 = 0
	reachSym   uint8 = 1
	reachEntry uint8 = 2
)

// region is the word-aligned decodable span of one image segment.
type region struct {
	addr uint32 // word-aligned start
	ins  []isa.Inst
	ok   []bool // ok[i]: word i decodes
	// pre is the region's predecode: pre[i] = {ins[i], addr+4(i+1)}.
	// Built once and never written afterwards, so readers on any
	// goroutine may slice it freely.
	pre     []cpu.BlockIns
	reach   []uint8
	leader  []bool
	blockOf []int32
	tail    int // trailing bytes that do not form a word
}

func (r *region) words() int            { return len(r.ins) }
func (r *region) wordAddr(i int) uint32 { return r.addr + uint32(i)*isa.WordSize }

// block is one recovered basic block.
type block struct {
	ri         int // region index
	start, end int // word range [start, end) within the region
	entryReach bool

	// succs are resolved successor block ids, aligned with kinds.
	// conservative marks blocks whose successor set is not fully known
	// (indirect jumps, calls, faults).
	succs        []int
	kinds        []edgeKind
	conservative bool
}

// edgeKind classifies a CFG edge for the stack-depth dataflow.
type edgeKind uint8

const (
	edgeFlow edgeKind = iota // branch taken/fall-through: depth propagates
	edgeCall                 // call to a callee entry: depth restarts at 0
	edgeRet                  // call fall-through: depth propagates (calls assumed balanced)
)

// Analysis is the result of analyzing one program image. It is immutable
// after Analyze returns and safe for concurrent readers.
type Analysis struct {
	prog    *asm.Program
	regions []*region
	blocks  []*block
	diags   []Diag

	entryBlock int   // block id of the entry block, -1 if none
	idom       []int // per block id; -1 = no immediate dominator / not entry-reachable
	rpo        []int // entry-reachable block ids in reverse postorder
}

// Analyze runs the full static-analysis pass over p: CFG recovery, the
// interprocedural tier (indirect-target resolution and the call graph),
// dominators, stack-depth dataflow, and the verifier. It never fails;
// malformed images are reported through the diagnostics
// (Errors/Warnings).
func Analyze(p *asm.Program) *Analysis { return analyze(p, true).Analysis }

// AnalyzeIntra runs the intraprocedural pass only: calls are opaque, no
// indirect transfer is resolved, and the call-graph-aware verifier
// rules (unreachable-fn, indirect-data, call-imbalance) do not run.
func AnalyzeIntra(p *asm.Program) *Analysis { return analyze(p, false).Analysis }

// analyze runs the pipeline and returns its scratch state, whose
// Analysis is the result.
func analyze(p *asm.Program, interproc bool) *analyzer {
	a := &Analysis{prog: p, entryBlock: -1}
	if p == nil {
		a.diags = append(a.diags, Diag{Sev: SevError, Code: CodeBadTarget, Msg: "nil program"})
		return &analyzer{Analysis: a}
	}
	a.buildRegions()
	a.discover()
	z := newAnalyzer(a, a.buildBlocks())
	if interproc {
		// Patch provable indirect edges into the CFG before dominators
		// run, so they see the resolved graph.
		z.ip = z.resolveValues()
	}
	a.computeDominators()
	a.verify()
	if interproc {
		if z.ip == nil {
			// Resolution ran out of rounds, so the graph moved after
			// the last call-graph build.
			z.ip = z.buildInterproc()
		}
		z.verifyInterproc()
	}
	return z
}

// analyzer is the scratch state of one analyze call. It holds the
// per-block facts that depend only on a block's instructions, which
// never change after buildBlocks (indirect-edge patching rewrites only
// succs, kinds and conservative), and the call graph of the
// interprocedural tier. It is dropped when analyze returns: the
// Analysis keeps none of it.
type analyzer struct {
	*Analysis
	ip  *ipInfo   // call graph of the final CFG; nil for AnalyzeIntra
	def []uint32  // per block: registers written anywhere (r0 stripped)
	ret []bool    // per block: canonical return shape
	r1  []r1State // per block: syscall-number state before its control instruction
}

func newAnalyzer(a *Analysis, r1 []r1State) *analyzer {
	n := len(a.blocks)
	z := &analyzer{Analysis: a, def: make([]uint32, n), ret: make([]bool, n), r1: r1}
	for id, b := range a.blocks {
		r := a.regions[b.ri]
		for i := b.start; i < b.end; i++ {
			z.def[id] |= defMask(r.ins[i])
		}
		z.ret[id] = a.isReturnBlock(b)
	}
	return z
}

// Diags returns all findings, errors first, in discovery order within
// each severity.
func (a *Analysis) Diags() []Diag {
	out := make([]Diag, 0, len(a.diags))
	out = append(out, a.Errors()...)
	out = append(out, a.Warnings()...)
	return out
}

// Errors returns the findings that make the image unloadable.
func (a *Analysis) Errors() []Diag { return a.filter(SevError) }

// Warnings returns the non-fatal findings.
func (a *Analysis) Warnings() []Diag { return a.filter(SevWarn) }

func (a *Analysis) filter(sev Severity) []Diag {
	var out []Diag
	for _, d := range a.diags {
		if d.Sev == sev {
			out = append(out, d)
		}
	}
	return out
}

// Err returns nil when the image verified clean of errors, or an error
// summarizing the fatal findings (warnings never fail verification).
func (a *Analysis) Err() error {
	errs := a.Errors()
	if len(errs) == 0 {
		return nil
	}
	msg := errs[0].String()
	if len(errs) > 1 {
		msg = fmt.Sprintf("%s (and %d more)", msg, len(errs)-1)
	}
	return fmt.Errorf("sa: verifier rejected the image: %s", msg)
}

// locate maps a guest address to its region and word index. ok is false
// for addresses outside the image or off the word grid.
func (a *Analysis) locate(addr uint32) (ri, wi int, ok bool) {
	if addr%isa.WordSize != 0 {
		return 0, 0, false
	}
	lo, hi := 0, len(a.regions)
	for lo < hi {
		mid := (lo + hi) / 2
		r := a.regions[mid]
		if addr < r.addr {
			hi = mid
		} else if addr >= r.addr+uint32(r.words())*isa.WordSize {
			lo = mid + 1
		} else {
			return mid, int(addr-r.addr) / isa.WordSize, true
		}
	}
	return 0, 0, false
}

// Predecoded returns the image's shared predecoded instruction run
// starting at addr and extending to the end of addr's region. The slice
// is built once and never mutated, so callers may retain
// and re-slice it from any goroutine; entries whose word did not decode
// hold the zero instruction. ok is false when addr is not a word inside
// the image.
func (a *Analysis) Predecoded(addr uint32) (run []cpu.BlockIns, ok bool) {
	ri, wi, found := a.locate(addr)
	if !found {
		return nil, false
	}
	return a.regions[ri].pre[wi:], true
}

// BlockLeader returns the address of the first instruction of the
// recovered basic block containing addr. ok is false when addr is not
// inside discovered code.
func (a *Analysis) BlockLeader(addr uint32) (leader uint32, ok bool) {
	b := a.blockAt(addr)
	if b == nil {
		return 0, false
	}
	return a.regions[b.ri].wordAddr(b.start), true
}

// NumBlocks returns the number of recovered basic blocks.
func (a *Analysis) NumBlocks() int { return len(a.blocks) }

func (a *Analysis) blockAt(addr uint32) *block {
	ri, wi, ok := a.locate(addr)
	if !ok {
		return nil
	}
	id := a.regions[ri].blockOf[wi]
	if id < 0 {
		return nil
	}
	return a.blocks[id]
}
