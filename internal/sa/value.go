// Sparse conditional value propagation: the interprocedural tier's
// value analysis (DESIGN §11).
//
// The analysis computes, for every block reachable from the program
// entry along executable edges, an abstract register state at block
// entry. The abstraction is an unsigned interval [lo, hi] refined by a
// trailing-zero-bits claim (every possible value is ≡ 0 mod 2^tz) and,
// where the value set is small and exactly known, the sorted set of
// concrete values. The engine is a worklist SCCP: only the entry block
// is seeded, branch outcomes prune or refine outgoing edges, and call
// return edges re-enter the caller with the callee's may-define set
// cleared to unknown.
//
// Its one consumer is indirect-target resolution (resolveValues): a
// jalr whose operand carries an exact value set, all of whose targets
// are discovered block leaders, has its successor edges patched into
// the CFG; a provable target that is no leader is the indirect-data
// diagnostic. The resolution loop alternates SCCP fixpoints with
// patching until the graph stops changing — patching a call exposes
// the callee's effects, which widens the caller's loop state, which can
// enlarge the next round's target set. The states are local to that
// loop: the Analysis keeps only the patched graph.
package sa

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"superpin/internal/isa"
	"superpin/internal/kernel"
)

// Tuning knobs for the value analysis.
const (
	// setMax bounds the exact-value sets carried alongside intervals;
	// larger sets degrade to their interval hull. Sized above the
	// largest catalog dispatch table (gcc, 150 kernels) with headroom.
	setMax = 256
	// loadEnumMax bounds how many image words a load is willing to
	// enumerate to build an exact result set.
	loadEnumMax = 256
	// widenDelay is how many times a join may strictly raise a
	// register's interval at one block before widening kicks in;
	// twice that and the value goes to Top.
	widenDelay = 4
	// widenLandmark is the stage-one widening bound. Deliberately one
	// below the signed maximum: a loop counter widened to this and then
	// incremented spans [1, 0x7FFFFFFF], which still does not cross the
	// sign boundary, so signed branch refinement keeps working.
	widenLandmark = 0x7FFFFFFE
	// maxResolveRounds bounds the SCCP/patch alternation.
	maxResolveRounds = 8
)

// vval is the abstract value of one register: an unsigned interval
// [lo, hi], a trailing-zeros claim (every concrete value is a multiple
// of 2^tz), and optionally the exact sorted value set.
type vval struct {
	lo, hi uint32
	tz     uint8
	set    []uint32
}

func vTop() vval           { return vval{0, ^uint32(0), 0, nil} }
func (v vval) isTop() bool { return v.lo == 0 && v.hi == ^uint32(0) && v.tz == 0 }
func (v vval) isConst() (uint32, bool) {
	if v.lo == v.hi {
		return v.lo, true
	}
	return 0, false
}

func tzOf(c uint32) uint8 {
	if c == 0 {
		return 31
	}
	return uint8(min(31, bits.TrailingZeros32(c)))
}

func vConst(c uint32) vval { return vval{c, c, tzOf(c), []uint32{c}} }

// vFromSet builds the exact abstraction of a non-empty sorted value
// set.
func vFromSet(set []uint32) vval {
	tz := uint8(31)
	for _, c := range set {
		tz = min(tz, tzOf(c))
	}
	return vval{set[0], set[len(set)-1], tz, set}
}

func (v vval) eq(w vval) bool {
	if v.lo != w.lo || v.hi != w.hi || v.tz != w.tz || len(v.set) != len(w.set) {
		return false
	}
	for i := range v.set {
		if v.set[i] != w.set[i] {
			return false
		}
	}
	return true
}

// vjoin is the lattice join (union of concretizations, approximated).
func vjoin(a, b vval) vval {
	out := vval{min(a.lo, b.lo), max(a.hi, b.hi), min(a.tz, b.tz), nil}
	if a.set != nil && b.set != nil {
		out.set = unionSets(a.set, b.set)
	}
	return out
}

// subsumes reports that vjoin(v, w) is v again: v's interval contains
// w's, v's trailing-zeros claim is no stronger, and v carries no exact
// set or one that w's set adds nothing to.
func (v *vval) subsumes(w *vval) bool {
	if v.lo > w.lo || v.hi < w.hi || v.tz > w.tz {
		return false
	}
	switch {
	case v.set == nil:
		return true
	case w.set == nil:
		return len(v.set) == 0 // the join drops the set; eq sees no difference
	default:
		return len(v.set) <= setMax && isSubset(w.set, v.set)
	}
}

// unionSets merges two sorted sets, returning nil past the size cap.
// When b ⊆ a the result is a itself.
func unionSets(a, b []uint32) []uint32 {
	if len(a) <= setMax && isSubset(b, a) {
		return a
	}
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
		if len(out) > setMax {
			return nil
		}
	}
	return out
}

// mapSet applies f to every element of a sorted set, re-sorting and
// deduplicating (f need not be monotone under wraparound).
func mapSet(set []uint32, f func(uint32) uint32) []uint32 {
	out := make([]uint32, len(set))
	for i, c := range set {
		out[i] = f(c)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// imageWords is a raw little-endian word view of the program image,
// for enumerable loads (regions only keep decoded instructions, and
// data like jump tables rarely decodes). Built straight from the
// segment bytes with the same alignment rule as buildRegions.
type imageWords struct {
	base  []uint32 // aligned start address per span
	words [][]uint32
}

func (a *Analysis) newImageWords() *imageWords {
	img := &imageWords{}
	for _, seg := range a.prog.Segments {
		start := (seg.Addr + isa.WordSize - 1) &^ (isa.WordSize - 1)
		off := int(start - seg.Addr)
		if off >= len(seg.Data) {
			continue
		}
		n := (len(seg.Data) - off) / isa.WordSize
		ws := make([]uint32, n)
		for i := 0; i < n; i++ {
			ws[i] = binary.LittleEndian.Uint32(seg.Data[off+i*isa.WordSize:])
		}
		img.base = append(img.base, start)
		img.words = append(img.words, ws)
	}
	sort.Sort(&imgSort{img})
	return img
}

type imgSort struct{ img *imageWords }

func (s *imgSort) Len() int           { return len(s.img.base) }
func (s *imgSort) Less(i, j int) bool { return s.img.base[i] < s.img.base[j] }
func (s *imgSort) Swap(i, j int) {
	s.img.base[i], s.img.base[j] = s.img.base[j], s.img.base[i]
	s.img.words[i], s.img.words[j] = s.img.words[j], s.img.words[i]
}

// lookup returns the image word at addr; ok is false off-image or off
// the word grid.
func (img *imageWords) lookup(addr uint32) (uint32, bool) {
	if addr%isa.WordSize != 0 {
		return 0, false
	}
	lo, hi := 0, len(img.base)
	for lo < hi {
		mid := (lo + hi) / 2
		b := img.base[mid]
		n := uint32(len(img.words[mid])) * isa.WordSize
		switch {
		case addr < b:
			hi = mid
		case addr >= b+n:
			lo = mid + 1
		default:
			return img.words[mid][(addr-b)/isa.WordSize], true
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------
// Transfer functions
// ---------------------------------------------------------------------

func addv(a, b vval) vval {
	if c, ok := b.isConst(); ok && a.set != nil {
		return vFromSet(mapSet(a.set, func(x uint32) uint32 { return x + c }))
	}
	if c, ok := a.isConst(); ok && b.set != nil {
		return vFromSet(mapSet(b.set, func(x uint32) uint32 { return x + c }))
	}
	lo := uint64(a.lo) + uint64(b.lo)
	hi := uint64(a.hi) + uint64(b.hi)
	tz := min(a.tz, b.tz)
	switch {
	case hi <= 0xFFFFFFFF:
		return vval{uint32(lo), uint32(hi), tz, nil}
	case lo > 0xFFFFFFFF:
		return vval{uint32(lo), uint32(hi), tz, nil} // both wrapped consistently
	default:
		return vTop()
	}
}

func subv(a, b vval) vval {
	if c, ok := b.isConst(); ok && a.set != nil {
		return vFromSet(mapSet(a.set, func(x uint32) uint32 { return x - c }))
	}
	lo := int64(a.lo) - int64(b.hi)
	hi := int64(a.hi) - int64(b.lo)
	tz := min(a.tz, b.tz)
	switch {
	case lo >= 0:
		return vval{uint32(lo), uint32(hi), tz, nil}
	case hi < 0:
		return vval{uint32(lo), uint32(hi), tz, nil} // both wrapped consistently
	default:
		return vTop()
	}
}

// orUpper is a safe upper bound for x|y given x<=a, y<=b: every bit of
// the result is below the highest bit of a|b.
func orUpper(a, b uint32) uint32 {
	m := a | b
	if m == 0 {
		return 0
	}
	return uint32(1)<<bits.Len32(m) - 1
}

// crossesSign reports whether the unsigned interval spans the
// 0x7FFFFFFF/0x80000000 boundary (where signed order breaks).
func (v vval) crossesSign() bool { return v.lo <= 0x7FFFFFFF && v.hi >= 0x80000000 }

const signBias = uint32(0x80000000)

// biased maps v into the signed-comparison domain (x ^ 0x80000000
// makes signed order match unsigned order); ok is false when the
// interval crosses the sign boundary and the mapping is not an
// interval.
func (v vval) biased() (vval, bool) {
	if v.crossesSign() {
		return vval{}, false
	}
	return vval{v.lo ^ signBias, v.hi ^ signBias, 0, nil}, true
}

// cmpLTU proves a <u b where possible.
func cmpLTU(a, b vval) (val, proven bool) {
	if a.hi < b.lo {
		return true, true
	}
	if a.lo >= b.hi {
		return false, true
	}
	return false, false
}

// cmpEQ proves a == b where possible.
func cmpEQ(a, b vval) (val, proven bool) {
	ca, oka := a.isConst()
	cb, okb := b.isConst()
	if oka && okb {
		return ca == cb, true
	}
	if a.hi < b.lo || b.hi < a.lo {
		return false, true
	}
	// Disjoint residues: if both carry tz claims the congruence classes
	// can still overlap, but two exact sets with empty intersection
	// prove inequality.
	if a.set != nil && b.set != nil && !setsIntersect(a.set, b.set) {
		return false, true
	}
	return false, false
}

// isSubset reports b ⊆ a for sorted sets.
func isSubset(b, a []uint32) bool {
	if len(b) > 0 && len(b) <= len(a) && &b[0] == &a[0] {
		return true // b is a prefix of the same backing array
	}
	i := 0
	for _, c := range b {
		for i < len(a) && a[i] < c {
			i++
		}
		if i == len(a) || a[i] != c {
			return false
		}
	}
	return true
}

func setsIntersect(a, b []uint32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case b[j] < a[i]:
			j++
		default:
			return true
		}
	}
	return false
}

// cmpLT proves a < b signed where possible.
func cmpLT(a, b vval) (val, proven bool) {
	ba, oka := a.biased()
	bb, okb := b.biased()
	if !oka || !okb {
		return false, false
	}
	return cmpLTU(ba, bb)
}

// vEval computes the value written by one non-store, non-syscall
// instruction at addr given register state st.
func vEval(in isa.Inst, addr uint32, st []vval, img *imageWords) vval {
	a := st[in.Rs1]
	uimm := uint32(in.Imm) // decode already sign/zero-extended per op
	switch in.Op {
	case isa.OpADD:
		return addv(a, st[in.Rs2])
	case isa.OpADDI:
		return addv(a, vConst(uimm))
	case isa.OpSUB:
		return subv(a, st[in.Rs2])
	case isa.OpMUL:
		if ca, ok := a.isConst(); ok {
			if cb, ok := st[in.Rs2].isConst(); ok {
				return vConst(ca * cb)
			}
		}
		return vTop()
	case isa.OpDIV:
		return divv(a, st[in.Rs2])
	case isa.OpREM:
		return remv(a, st[in.Rs2])
	case isa.OpAND:
		return andv(a, st[in.Rs2])
	case isa.OpANDI:
		return andv(a, vConst(uimm))
	case isa.OpOR:
		return orv(a, st[in.Rs2])
	case isa.OpORI:
		return orv(a, vConst(uimm))
	case isa.OpXOR:
		return xorv(a, st[in.Rs2])
	case isa.OpXORI:
		return xorv(a, vConst(uimm))
	case isa.OpSLL, isa.OpSRL, isa.OpSRA:
		ca, oka := a.isConst()
		cb, okb := st[in.Rs2].isConst()
		if oka && okb {
			s := cb & 31
			switch in.Op {
			case isa.OpSLL:
				return vConst(ca << s)
			case isa.OpSRL:
				return vConst(ca >> s)
			default:
				return vConst(uint32(int32(ca) >> s))
			}
		}
		return vTop()
	case isa.OpSLLI:
		return slliv(a, uimm&31)
	case isa.OpSRLI:
		return srliv(a, uimm&31)
	case isa.OpSRAI:
		return sraiv(a, uimm&31)
	case isa.OpSLT:
		return boolv(cmpLT(a, st[in.Rs2]))
	case isa.OpSLTU:
		return boolv(cmpLTU(a, st[in.Rs2]))
	case isa.OpSLTI:
		return boolv(cmpLT(a, vConst(uimm)))
	case isa.OpSLTIU:
		return boolv(cmpLTU(a, vConst(uimm)))
	case isa.OpLUI:
		return vConst(uimm << 16)
	case isa.OpLW:
		return loadv(addv(a, vConst(uimm)), img)
	case isa.OpLB:
		return vTop()
	case isa.OpLBU:
		return vval{0, 255, 0, nil}
	case isa.OpJAL, isa.OpJALR:
		return vConst(addr + isa.WordSize)
	}
	return vTop()
}

func boolv(val, proven bool) vval {
	if !proven {
		return vval{0, 1, 0, nil}
	}
	if val {
		return vConst(1)
	}
	return vConst(0)
}

func divv(a, b vval) vval {
	if ca, ok := a.isConst(); ok {
		if cb, ok := b.isConst(); ok {
			// cpu.Exec semantics: /0 yields all ones, INT_MIN/-1 the dividend.
			switch {
			case cb == 0:
				return vConst(^uint32(0))
			case int32(ca) == -1<<31 && int32(cb) == -1:
				return vConst(ca)
			default:
				return vConst(uint32(int32(ca) / int32(cb)))
			}
		}
	}
	// Non-negative dividend interval / positive constant divisor.
	if d, ok := b.isConst(); ok && int32(d) > 0 && a.hi < 1<<31 {
		return vval{a.lo / d, a.hi / d, 0, nil}
	}
	return vTop()
}

func remv(a, b vval) vval {
	if ca, ok := a.isConst(); ok {
		if cb, ok := b.isConst(); ok {
			switch {
			case cb == 0:
				return vConst(ca)
			case int32(ca) == -1<<31 && int32(cb) == -1:
				return vConst(0)
			default:
				return vConst(uint32(int32(ca) % int32(cb)))
			}
		}
	}
	if d, ok := b.isConst(); ok && int32(d) > 0 && a.hi < 1<<31 {
		if a.hi < d {
			return vval{a.lo, a.hi, 0, a.set}
		}
		return vval{0, min(a.hi, d-1), 0, nil}
	}
	return vTop()
}

func andv(a, b vval) vval {
	if ca, ok := a.isConst(); ok {
		if cb, ok := b.isConst(); ok {
			return vConst(ca & cb)
		}
	}
	return vval{0, min(a.hi, b.hi), max(a.tz, b.tz), nil}
}

func orv(a, b vval) vval {
	ca, oka := a.isConst()
	cb, okb := b.isConst()
	switch {
	case oka && okb:
		return vConst(ca | cb)
	case oka && ca == 0:
		return b
	case okb && cb == 0:
		return a
	}
	return vval{max(a.lo, b.lo), orUpper(a.hi, b.hi), min(a.tz, b.tz), nil}
}

func xorv(a, b vval) vval {
	ca, oka := a.isConst()
	cb, okb := b.isConst()
	switch {
	case oka && okb:
		return vConst(ca ^ cb)
	case oka && ca == 0:
		return b
	case okb && cb == 0:
		return a
	}
	return vval{0, orUpper(a.hi, b.hi), min(a.tz, b.tz), nil}
}

func slliv(a vval, s uint32) vval {
	if a.set != nil && uint64(a.hi)<<s <= 0xFFFFFFFF {
		return vFromSet(mapSet(a.set, func(x uint32) uint32 { return x << s }))
	}
	if uint64(a.hi)<<s > 0xFFFFFFFF {
		return vTop()
	}
	return vval{a.lo << s, a.hi << s, min(31, a.tz+uint8(s)), nil}
}

func srliv(a vval, s uint32) vval {
	if a.set != nil {
		return vFromSet(mapSet(a.set, func(x uint32) uint32 { return x >> s }))
	}
	tz := uint8(0)
	if int(a.tz) > int(s) {
		tz = a.tz - uint8(s)
	}
	return vval{a.lo >> s, a.hi >> s, tz, nil}
}

func sraiv(a vval, s uint32) vval {
	if a.crossesSign() {
		return vTop()
	}
	tz := uint8(0)
	if int(a.tz) > int(s) {
		tz = a.tz - uint8(s)
	}
	return vval{uint32(int32(a.lo) >> s), uint32(int32(a.hi) >> s), tz, nil}
}

// loadv evaluates a word load from an abstract address: when the
// address set (or a small congruence-stepped interval) enumerates to
// in-image words, the result is their exact value set.
func loadv(addr vval, img *imageWords) vval {
	var addrs []uint32
	switch {
	case addr.set != nil:
		addrs = addr.set
	case addr.tz >= 2:
		step := uint32(1) << addr.tz
		first := (addr.lo + step - 1) / step * step
		if first < addr.lo { // overflow in round-up
			return vTop()
		}
		if addr.hi < first {
			return vTop()
		}
		n := (addr.hi-first)/step + 1
		if n > loadEnumMax {
			return vTop()
		}
		for i := uint32(0); i < n; i++ {
			addrs = append(addrs, first+i*step)
		}
	default:
		return vTop()
	}
	if len(addrs) == 0 || len(addrs) > loadEnumMax {
		return vTop()
	}
	vals := make([]uint32, 0, len(addrs))
	for _, ea := range addrs {
		w, ok := img.lookup(ea)
		if !ok {
			return vTop()
		}
		vals = append(vals, w)
	}
	slices.Sort(vals)
	return vFromSet(slices.Compact(vals))
}

// vstep applies one instruction's register effect to st in place.
// Terminator-specific control effects (branch refinement, call return
// clobbers) are the caller's business; this only models the register
// write.
func vstep(st []vval, in isa.Inst, addr uint32, img *imageWords) {
	if in.Op == isa.OpSYSCALL {
		// The kernel writes the result to r1; all other registers are
		// preserved across every non-exit syscall.
		st[isa.RegSys] = vTop()
		return
	}
	d := in.DstReg()
	if d <= 0 {
		return
	}
	st[d] = vEval(in, addr, st, img)
}

// ---------------------------------------------------------------------
// Branch refinement
// ---------------------------------------------------------------------

// refineBranch narrows st in place under the assumption that the
// conditional branch in was (taken=true) or was not (taken=false)
// taken. It reports false when the assumption is contradictory — the
// edge is not executable.
func refineBranch(st []vval, in isa.Inst, taken bool) bool {
	a, b := st[in.Rs1], st[in.Rs2]
	var ok bool
	switch in.Op {
	case isa.OpBEQ:
		a, b, ok = refineEQ(a, b, taken)
	case isa.OpBNE:
		a, b, ok = refineEQ(a, b, !taken)
	case isa.OpBLTU:
		a, b, ok = refineLTU(a, b, taken)
	case isa.OpBGEU:
		a, b, ok = refineLTU(a, b, !taken)
	case isa.OpBLT:
		a, b, ok = refineLT(a, b, taken)
	case isa.OpBGE:
		a, b, ok = refineLT(a, b, !taken)
	default:
		return true
	}
	if !ok {
		return false
	}
	if in.Rs1 != isa.RegZero {
		st[in.Rs1] = a
	}
	if in.Rs2 != isa.RegZero {
		st[in.Rs2] = b
	}
	return true
}

// refineEQ: eq=true asserts a == b, eq=false asserts a != b.
func refineEQ(a, b vval, eq bool) (vval, vval, bool) {
	if eq {
		lo, hi := max(a.lo, b.lo), min(a.hi, b.hi)
		if lo > hi {
			return a, b, false
		}
		n := vval{lo, hi, max(a.tz, b.tz), nil}
		if a.set != nil && b.set != nil {
			n.set = intersectSets(a.set, b.set)
			if len(n.set) == 0 {
				return a, b, false
			}
			n = vFromSet(n.set)
		}
		n.set = filterSet(n.set, n.lo, n.hi)
		return n, n, true
	}
	// a != b: only boundary shaving against a constant is useful.
	if c, isC := b.isConst(); isC {
		na, alive := shaveConst(a, c)
		return na, b, alive
	}
	if c, isC := a.isConst(); isC {
		nb, alive := shaveConst(b, c)
		return a, nb, alive
	}
	return a, b, true
}

// shaveConst removes c from v's interval when c sits on a boundary.
func shaveConst(v vval, c uint32) (vval, bool) {
	if cv, ok := v.isConst(); ok {
		return v, cv != c
	}
	n := v
	if v.lo == c {
		n.lo++
	} else if v.hi == c {
		n.hi--
	}
	n.set = removeFromSet(filterSet(n.set, n.lo, n.hi), c)
	if n.set != nil && len(n.set) == 0 {
		return n, false
	}
	return n, true
}

func intersectSets(a, b []uint32) []uint32 {
	out := []uint32{}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case b[j] < a[i]:
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	return out
}

func filterSet(set []uint32, lo, hi uint32) []uint32 {
	if set == nil {
		return nil
	}
	out := set[:0:0]
	for _, c := range set {
		if c >= lo && c <= hi {
			out = append(out, c)
		}
	}
	return out
}

func removeFromSet(set []uint32, c uint32) []uint32 {
	if set == nil {
		return nil
	}
	out := set[:0:0]
	for _, x := range set {
		if x != c {
			out = append(out, x)
		}
	}
	return out
}

// refineLTU: lt=true asserts a <u b, lt=false asserts a >=u b.
func refineLTU(a, b vval, lt bool) (vval, vval, bool) {
	if lt {
		if b.hi == 0 {
			return a, b, false // nothing is below 0
		}
		na, nb := a, b
		na.hi = min(na.hi, b.hi-1)
		if a.lo == ^uint32(0) {
			return a, b, false
		}
		nb.lo = max(nb.lo, a.lo+1)
		if na.lo > na.hi || nb.lo > nb.hi {
			return a, b, false
		}
		na.set = filterSet(na.set, na.lo, na.hi)
		nb.set = filterSet(nb.set, nb.lo, nb.hi)
		return na, nb, true
	}
	na, nb := a, b
	na.lo = max(na.lo, b.lo)
	nb.hi = min(nb.hi, a.hi)
	if na.lo > na.hi || nb.lo > nb.hi {
		return a, b, false
	}
	na.set = filterSet(na.set, na.lo, na.hi)
	nb.set = filterSet(nb.set, nb.lo, nb.hi)
	return na, nb, true
}

// refineLT is the signed counterpart, computed in the biased domain
// when both intervals map cleanly; refinement is skipped (soundly) for
// a side whose interval crosses the sign boundary.
func refineLT(a, b vval, lt bool) (vval, vval, bool) {
	ba, oka := a.biased()
	bb, okb := b.biased()
	if !oka || !okb {
		return a, b, true // no refinement, still executable
	}
	ra, rb, alive := refineLTU(ba, bb, lt)
	if !alive {
		return a, b, false
	}
	na, nb := a, b
	if un, ok := unbias(ra); ok {
		un.tz, un.set = a.tz, filterSetSigned(a.set, un.lo, un.hi)
		na = un
	}
	if un, ok := unbias(rb); ok {
		un.tz, un.set = b.tz, filterSetSigned(b.set, un.lo, un.hi)
		nb = un
	}
	return na, nb, true
}

// unbias maps a biased interval back to the unsigned domain; ok is
// false when the biased interval spans the re-mapping boundary.
func unbias(v vval) (vval, bool) {
	if v.crossesSign() {
		return vval{}, false
	}
	return vval{v.lo ^ signBias, v.hi ^ signBias, 0, nil}, true
}

// filterSetSigned keeps set elements inside the unsigned interval
// [lo, hi] (which after unbias is a plain unsigned range).
func filterSetSigned(set []uint32, lo, hi uint32) []uint32 {
	return filterSet(set, lo, hi)
}

// ---------------------------------------------------------------------
// The SCCP engine
// ---------------------------------------------------------------------

// termKind classifies how a block hands control onward for the value
// propagation.
type termKind uint8

const (
	termFlow     termKind = iota // plain flow successors (falls, jumps, patched tables)
	termBranch                   // conditional branch: succs[0] taken, succs[1] fall-through
	termCall                     // resolved call: edgeCall callees + one edgeRet continuation
	termRet                      // function return
	termTerminal                 // provably terminal (exit syscall)
	termSyscall                  // non-terminal syscall: r1 clobbered, then flow
	termWild                     // statically unknown continuation: no propagation
)

// isReturnBlock reports the canonical return shape: jalr r0, lr, 0.
func (a *Analysis) isReturnBlock(b *block) bool {
	in := a.regions[b.ri].ins[b.end-1]
	return in.Op == isa.OpJALR && in.Rd == isa.RegZero &&
		in.Rs1 == isa.RegLR && in.Imm == 0
}

// classifyTerm decides the propagation shape of block id.
func (a *Analysis) classifyTerm(b *block) termKind {
	in := a.regions[b.ri].ins[b.end-1]
	if b.conservative {
		if a.isReturnBlock(b) {
			return termRet
		}
		return termWild
	}
	switch {
	case in.Op.IsCondBranch():
		if len(b.succs) == 2 {
			return termBranch
		}
		return termWild
	case in.Op == isa.OpJAL || in.Op == isa.OpJALR:
		for _, k := range b.kinds {
			if k == edgeCall {
				return termCall
			}
		}
		return termFlow
	case in.Op == isa.OpSYSCALL:
		if len(b.succs) == 0 {
			return termTerminal
		}
		return termSyscall
	}
	return termFlow
}

// sccp runs the worklist fixpoint over the current CFG and returns the
// register state at each block's entry, nil for blocks it never
// reached. mayDefOf maps a callee entry block id to the registers the
// callee (transitively) may modify (see ipInfo.calleeMayDefs). When the
// sweep cap is exceeded every state is nil.
func (a *Analysis) sccp(img *imageWords, mayDefOf []uint32) [][]vval {
	n := len(a.blocks)
	entry := make([][]vval, n)
	entryID := a.entryBlockID()
	if entryID < 0 {
		return entry
	}
	raises := make([][isa.NumRegs]uint8, n)
	inQueue := make([]bool, n)
	var queue []int
	enqueue := func(id int) {
		if !inQueue[id] {
			inQueue[id] = true
			queue = append(queue, id)
		}
	}

	seed := make([]vval, isa.NumRegs)
	for i := range seed {
		seed[i] = vTop()
	}
	seed[isa.RegZero] = vConst(0)
	entry[entryID] = seed
	enqueue(entryID)

	// propagate copies st on first reach (into a slot carved from a
	// chunked slab) and never retains it, so callers may pass reused
	// buffers.
	var slab []vval
	propagate := func(to int, st []vval) {
		if entry[to] == nil {
			if len(slab) == 0 {
				slab = make([]vval, 16*isa.NumRegs)
			}
			cp := slab[:isa.NumRegs:isa.NumRegs]
			slab = slab[isa.NumRegs:]
			copy(cp, st)
			cp[isa.RegZero] = vConst(0)
			entry[to] = cp
			enqueue(to)
			return
		}
		cur := entry[to]
		changed := false
		for r := 1; r < isa.NumRegs; r++ {
			if cur[r].subsumes(&st[r]) {
				continue // the join would return cur[r] unchanged
			}
			nv := vjoin(cur[r], st[r])
			if nv.eq(cur[r]) {
				continue
			}
			// The join strictly descended: count it and widen when the
			// same register keeps descending at the same join point.
			raises[to][r]++
			if raises[to][r] > 2*widenDelay {
				nv = vTop()
			} else if raises[to][r] > widenDelay && !nv.isTop() {
				if nv.hi <= widenLandmark {
					nv = vval{0, widenLandmark, nv.tz, nil}
				} else {
					nv = vTop()
				}
			}
			if !nv.eq(cur[r]) {
				cur[r] = nv
				changed = true
			}
		}
		if changed {
			enqueue(to)
		}
	}

	budget := 256 * (n + 1)
	steps := 0
	scratch := make([]vval, isa.NumRegs)
	tk := make([]vval, isa.NumRegs) // taken-branch / return-continuation state
	ft := make([]vval, isa.NumRegs) // fall-through state
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		inQueue[id] = false
		steps++
		if steps > budget {
			return make([][]vval, n)
		}
		b := a.blocks[id]
		r := a.regions[b.ri]
		st := scratch
		copy(st, entry[id])
		last := b.end - 1
		lastIn := r.ins[last]
		kind := a.classifyTerm(b)
		// Replay the block body. For blocks cut without a terminator the
		// "terminator" is an ordinary instruction and must execute too.
		for i := b.start; i < last; i++ {
			vstep(st, r.ins[i], r.wordAddr(i), img)
		}
		lastAddr := r.wordAddr(last)
		switch kind {
		case termFlow:
			vstep(st, lastIn, lastAddr, img)
			for _, s := range b.succs {
				propagate(s, st)
			}
		case termBranch:
			taken, proven := a.evalBranch(st, lastIn)
			if !proven || taken {
				copy(tk, st)
				if refineBranch(tk, lastIn, true) {
					propagate(b.succs[0], tk)
				}
			}
			if !proven || !taken {
				copy(ft, st)
				if refineBranch(ft, lastIn, false) {
					propagate(b.succs[1], ft)
				}
			}
		case termCall:
			// rd is written before control transfers: callees see it.
			if d := lastIn.DstReg(); d > 0 {
				st[d] = vConst(lastAddr + isa.WordSize)
			}
			var clobber uint32
			retSucc := -1
			for i, s := range b.succs {
				if b.kinds[i] == edgeCall {
					propagate(s, st)
					clobber |= mayDefOf[s]
				} else {
					retSucc = s
				}
			}
			if retSucc >= 0 {
				copy(tk, st)
				for reg := 1; reg < isa.NumRegs; reg++ {
					if clobber&(1<<uint(reg)) != 0 {
						tk[reg] = vTop()
					}
				}
				propagate(retSucc, tk)
			}
		case termSyscall:
			vstep(st, lastIn, lastAddr, img)
			for _, s := range b.succs {
				propagate(s, st)
			}
		case termRet, termTerminal, termWild:
			// Returns re-enter callers through their calls' edgeRet
			// continuations; terminal and wild blocks propagate nothing.
			// An unresolved indirect call is wild here on purpose: its
			// continuation stays optimistically unreached until the call
			// resolves (or the whole program is declared wild).
		}
	}
	return entry
}

// evalBranch decides a conditional branch outcome from the state just
// before it.
func (a *Analysis) evalBranch(st []vval, in isa.Inst) (taken, proven bool) {
	x, y := st[in.Rs1], st[in.Rs2]
	switch in.Op {
	case isa.OpBEQ:
		return cmpEQ(x, y)
	case isa.OpBNE:
		v, p := cmpEQ(x, y)
		return !v, p
	case isa.OpBLT:
		return cmpLT(x, y)
	case isa.OpBGE:
		v, p := cmpLT(x, y)
		return !v, p
	case isa.OpBLTU:
		return cmpLTU(x, y)
	case isa.OpBGEU:
		v, p := cmpLTU(x, y)
		return !v, p
	}
	return false, false
}

// entryBlockID resolves the entry block id without requiring
// computeDominators to have run.
func (a *Analysis) entryBlockID() int {
	b := a.blockAt(a.prog.Entry)
	if b == nil || !b.entryReach {
		return -1
	}
	return int(a.regions[b.ri].blockOf[b.start])
}

// ---------------------------------------------------------------------
// Indirect-target resolution
// ---------------------------------------------------------------------

// indirectBlocks returns the ids of blocks terminated by a jalr that
// is not a canonical return, in block order.
func (a *Analysis) indirectBlocks() []int {
	var out []int
	for id, b := range a.blocks {
		in := a.regions[b.ri].ins[b.end-1]
		if in.Op == isa.OpJALR && !a.isReturnBlock(b) {
			out = append(out, id)
		}
	}
	return out
}

// candidateTargets replays block id from its entry state and returns
// the exact jalr target set when provable. bad collects provable
// targets that are not discovered block leaders (indirect-call-to-data).
func (a *Analysis) candidateTargets(entry [][]vval, img *imageWords, id int) (targets []int, bad []uint32, provable bool) {
	if entry[id] == nil {
		return nil, nil, false
	}
	b := a.blocks[id]
	r := a.regions[b.ri]
	st := make([]vval, isa.NumRegs)
	copy(st, entry[id])
	last := b.end - 1
	for i := b.start; i < last; i++ {
		vstep(st, r.ins[i], r.wordAddr(i), img)
	}
	in := r.ins[last]
	v := st[in.Rs1]
	if v.set == nil {
		return nil, nil, false
	}
	addrs := mapSet(v.set, func(x uint32) uint32 { return (x + uint32(in.Imm)) &^ (isa.WordSize - 1) })
	seen := make(map[int]bool)
	for _, t := range addrs {
		tb := a.blockAt(t)
		if tb == nil || a.regions[tb.ri].wordAddr(tb.start) != t {
			bad = append(bad, t)
			continue
		}
		tid := int(a.regions[tb.ri].blockOf[tb.start])
		if !seen[tid] {
			seen[tid] = true
			targets = append(targets, tid)
		}
	}
	if len(bad) > 0 {
		return nil, bad, false
	}
	sort.Ints(targets)
	return targets, nil, true
}

// applyIndirect patches (or unpatches) the successor edges of an
// indirect block. For a call the ret continuation edge is kept first
// and the callees appended; for a jump the targets become plain flow
// edges. Reports whether the block changed.
func (a *Analysis) applyIndirect(id int, targets []int, provable bool) bool {
	b := a.blocks[id]
	in := a.regions[b.ri].ins[b.end-1]
	isCall := in.Rd != isa.RegZero
	var succs []int
	var kinds []edgeKind
	conservative := true
	if provable {
		if isCall {
			// The return continuation must itself be a discovered block.
			ret := -1
			for i, s := range b.succs {
				if b.kinds[i] == edgeRet {
					ret = s
				}
			}
			if ret >= 0 {
				succs = append(succs, ret)
				kinds = append(kinds, edgeRet)
				for _, t := range targets {
					succs = append(succs, t)
					kinds = append(kinds, edgeCall)
				}
				conservative = false
			}
		} else {
			for _, t := range targets {
				succs = append(succs, t)
				kinds = append(kinds, edgeFlow)
			}
			conservative = len(succs) == 0
		}
	}
	if conservative {
		// Restore the unresolved shape from buildBlocks.
		succs, kinds = nil, nil
		if isCall {
			for i, s := range b.succs {
				if b.kinds[i] == edgeRet {
					succs = append(succs, s)
					kinds = append(kinds, edgeRet)
				}
			}
		}
	}
	if b.conservative == conservative && slices.Equal(b.succs, succs) && slices.Equal(b.kinds, kinds) {
		return false
	}
	b.succs, b.kinds, b.conservative = succs, kinds, conservative
	return true
}

// resolveValues is the interprocedural driver: it alternates SCCP
// fixpoints with indirect-edge patching until the graph is stable, and
// diagnoses provable indirect transfers into non-code. It returns the
// call graph of the final CFG when the loop converged (the last round's
// build saw the graph no patch changed afterwards), or nil when it ran
// out of rounds.
func (z *analyzer) resolveValues() *ipInfo {
	a := z.Analysis
	img := a.newImageWords()
	// Direct calls whose callee and continuation both resolved are
	// trusted edges in the interprocedural graph.
	for _, b := range a.blocks {
		in := a.regions[b.ri].ins[b.end-1]
		if in.Op == isa.OpJAL && in.Rd != isa.RegZero &&
			len(b.succs) == 2 && b.kinds[0] == edgeCall && b.kinds[1] == edgeRet {
			b.conservative = false
		}
	}
	indirect := a.indirectBlocks()
	converged := false
	var badTargets map[int][]uint32
	var ip *ipInfo
	for round := 0; round < maxResolveRounds; round++ {
		ip = z.buildInterproc()
		entry := a.sccp(img, ip.calleeMayDefs())
		changed := false
		badTargets = make(map[int][]uint32)
		for _, id := range indirect {
			targets, bad, provable := a.candidateTargets(entry, img, id)
			if len(bad) > 0 {
				badTargets[id] = bad
			}
			if a.applyIndirect(id, targets, provable) {
				changed = true
			}
		}
		if !changed {
			converged = true
			break
		}
	}

	// Diagnose provable indirect transfers into non-code.
	ids := make([]int, 0, len(badTargets))
	for id := range badTargets { //detguard:ok sorted below
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		b := a.blocks[id]
		addr := a.regions[b.ri].wordAddr(b.end - 1)
		a.diags = append(a.diags, Diag{Sev: SevWarn, Code: CodeIndirectData, Addr: addr,
			Msg: diagBadTargets(badTargets[id])})
	}
	if !converged {
		return nil
	}
	return ip
}

func diagBadTargets(bad []uint32) string {
	msg := "indirect transfer provably targets non-code:"
	for i, t := range bad {
		if i == 4 {
			msg += " ..."
			break
		}
		msg += fmt.Sprintf(" %#08x", t)
	}
	return msg
}

// classifyWild scans the blocks reachable from the entry (over all
// edge kinds in the final graph) for control the analysis cannot
// account for: an unresolved indirect transfer that is not a return,
// a run cut short without a terminator, or a syscall whose number is
// unknown or provably a spawn (children start at an arbitrary entry
// with a copy of the register file, outside any per-block state). A
// wild program raises no unreachable-fn warning: an unresolved transfer
// could reach anything.
func (z *analyzer) classifyWild() bool {
	entryID := z.entryBlockID()
	if entryID < 0 {
		return true
	}
	seen := make([]bool, len(z.blocks))
	stack := []int{entryID}
	seen[entryID] = true
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b := z.blocks[id]
		if b.conservative && !z.ret[id] {
			return true
		}
		if z.regions[b.ri].ins[b.end-1].Op == isa.OpSYSCALL {
			s := z.r1[id]
			if !s.known || s.val == kernel.SysSpawn {
				return true
			}
		}
		for _, s := range b.succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}
