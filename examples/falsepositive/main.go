// Falsepositive: the paper's known signature-detection limitation and the
// proposed fix (Section 4.4).
//
// Signature detection compares registers and the top of the stack at the
// boundary PC. The paper notes one failure mode: "a sequence of code
// could be generated that incremented or decremented memory in a loop as
// a loop counter, with all other registers and stack remaining the same
// across iterations" — the signature then matches on the first arrival,
// the slice ends early, and the instructions up to the true boundary are
// lost. The paper proposes extending the signature with "results of
// memory operations when no registers change"; this reproduction
// implements that extension (core.Options.MemCheck).
//
// This example constructs exactly that adversarial loop, shows the
// undercount with the paper's baseline detector, and shows the
// memory-probe extension restoring exactness.
//
//	go run ./examples/falsepositive
package main

import (
	"fmt"
	"log"

	"superpin/internal/asm"
	"superpin/internal/core"
	"superpin/internal/kernel"
	"superpin/internal/pin"
)

// adversarial is the paper's pathological loop: the only state advancing
// across iterations is the memory word at `counter`; at the loop head,
// every register (r6 is wiped each iteration) and the stack are identical
// on every trip.
const adversarial = `
	.entry main
main:
	la r5, counter
	li r8, 120000
loop:
	lw r6, (r5)
	addi r6, r6, 1
	sw r6, (r5)
	blt r6, r8, cont
	li r1, 1
	li r2, 0
	syscall
cont:
	li r6, 0
	j loop
	.org 0x7000
counter:
	.word 0
`

func main() {
	prog, err := asm.Assemble(adversarial)
	if err != nil {
		log.Fatal(err)
	}
	cfg := kernel.DefaultConfig()
	cfg.MaxCycles = 100_000_000_000

	native, err := core.RunNative(cfg, prog, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("native run:            %d instructions\n", native.Ins)

	run := func(memCheck bool) (uint64, *core.Result) {
		var count uint64
		factory := func(ctl *core.ToolCtl) core.Tool {
			local := make([]uint64, 1)
			shared := ctl.CreateSharedArea(local, core.MergeSum)
			return icount{local: local, out: &count, shared: shared, master: ctl.SliceNum() == -1}
		}
		opts := core.DefaultOptions()
		opts.SliceMSec = 300
		opts.MemCheck = memCheck
		res, err := core.Run(cfg, prog, factory, opts)
		if err != nil {
			log.Fatal(err)
		}
		return count, res
	}

	baseline, resBase := run(false)
	fmt.Printf("baseline detector:     %d instructions counted (%d slices)\n",
		baseline, resBase.Stats.Forks)
	lost := int64(native.Ins) - int64(baseline)
	if lost > 0 {
		fmt.Printf("  -> false positive: %d instructions lost to early slice termination\n", lost)
	} else {
		fmt.Println("  -> no false positive at this timeslice setting")
	}

	fixed, resFix := run(true)
	fmt.Printf("with memory probe:     %d instructions counted (%d probes recorded)\n",
		fixed, resFix.Stats.MemProbes)
	if fixed != native.Ins {
		log.Fatalf("memory-probe extension failed to restore exactness: %d != %d",
			fixed, native.Ins)
	}
	fmt.Println("\nthe Section 4.4 memory-operand extension restores exact coverage")
}

// icount is a minimal per-slice counting tool; the master instance
// publishes the merged total through out at Fini.
type icount struct {
	local  []uint64
	shared []uint64
	out    *uint64
	master bool
}

func (t icount) Instrument(tr *pin.Trace) {
	for _, bbl := range tr.Bbls() {
		bbl.InsertInlineAdd(pin.Before, &t.local[0], uint64(bbl.NumIns()))
	}
}

func (t icount) Fini(uint32) {
	if t.master {
		*t.out = t.shared[0]
	}
}
