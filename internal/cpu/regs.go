package cpu

import (
	"math/bits"

	"superpin/internal/isa"
)

// SaveMasked copies the registers selected by mask (bit i → ri) from r
// into dst and returns how many it copied. A full mask takes the
// whole-array fast path. The pin engine no longer calls it or
// RestoreMasked (predicates are pure observers, so it copies nothing
// around them); both stay only because the repository benchmark times
// them as cpu.savemasked_ns_*, and go with that benchmark's next
// revision.
func SaveMasked(r *Regs, mask uint32, dst *[isa.NumRegs]uint32) int {
	if mask == ^uint32(0) {
		*dst = r.R
		return isa.NumRegs
	}
	n := 0
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		dst[i] = r.R[i]
		n++
	}
	return n
}

// RestoreMasked copies the registers selected by mask from src back into
// r, inverting SaveMasked. Like SaveMasked, it has no engine caller.
func RestoreMasked(r *Regs, mask uint32, src *[isa.NumRegs]uint32) {
	if mask == ^uint32(0) {
		r.R = *src
		return
	}
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		r.R[i] = src[i]
	}
}
