package sa

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"superpin/internal/asm"
	"superpin/internal/isa"
	"superpin/internal/workload"
)

// exitSeq emits a clean SysExit(code) so corpus programs terminate.
func exitSeq(b *asm.Builder, code int32) {
	b.I(isa.OpADDI, isa.RegSys, isa.RegZero, 1) // SysExit
	b.I(isa.OpADDI, isa.RegArg0, isa.RegZero, code)
	b.Syscall()
}

func hasCode(diags []Diag, code Code) bool {
	for _, d := range diags {
		if d.Code == code {
			return true
		}
	}
	return false
}

func diagStrings(diags []Diag) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString("\n  ")
		sb.WriteString(d.String())
	}
	return sb.String()
}

// TestVerifyCorpus seeds one corruption per entry and checks the
// verifier rejects it with the specific diagnostic for that corruption
// class — not merely "some error".
func TestVerifyCorpus(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *asm.Program
		code  Code
		// substr, when non-empty, must appear in the matching diagnostic.
		substr string
	}{
		{
			name: "undecodable reachable word",
			build: func(t *testing.T) *asm.Program {
				b := asm.NewBuilder(0x1000)
				b.I(isa.OpADDI, 10, isa.RegZero, 7)
				b.Word(0xffff_ffff) // undefined opcode in the fall-through path
				exitSeq(b, 0)
				return b.MustFinish()
			},
			code:   CodeUndecodable,
			substr: "not a valid",
		},
		{
			name: "branch target outside the image",
			build: func(t *testing.T) *asm.Program {
				b := asm.NewBuilder(0x1000)
				b.Emit(isa.Inst{Op: isa.OpBEQ, Rs1: isa.RegZero, Rs2: isa.RegZero, Imm: 400})
				exitSeq(b, 0)
				return b.MustFinish()
			},
			code:   CodeBadTarget,
			substr: "outside the image",
		},
		{
			name: "jal target outside the image",
			build: func(t *testing.T) *asm.Program {
				b := asm.NewBuilder(0x1000)
				b.Emit(isa.Inst{Op: isa.OpJAL, Rd: isa.RegLR, Imm: -600})
				exitSeq(b, 0)
				return b.MustFinish()
			},
			code:   CodeBadTarget,
			substr: "outside the image",
		},
		{
			name: "misaligned entry point",
			build: func(t *testing.T) *asm.Program {
				b := asm.NewBuilder(0x1000)
				exitSeq(b, 0)
				p := b.MustFinish()
				p.Entry = 0x1002
				return p
			},
			code: CodeMisaligned,
		},
		{
			name: "control falls off the end of the image",
			build: func(t *testing.T) *asm.Program {
				b := asm.NewBuilder(0x1000)
				b.I(isa.OpADDI, 10, isa.RegZero, 7)
				b.R(isa.OpADD, 11, 10, 10) // no exit, no jump: runs off the end
				return b.MustFinish()
			},
			code: CodeFallOff,
		},
		{
			name: "truncated image (trailing partial word)",
			build: func(t *testing.T) *asm.Program {
				b := asm.NewBuilder(0x1000)
				b.I(isa.OpADDI, 10, isa.RegZero, 7)
				b.R(isa.OpADD, 11, 10, 10)
				p := b.MustFinish()
				// Chop the last instruction word in half: execution now
				// falls into two stray bytes that cannot decode.
				seg := &p.Segments[0]
				seg.Data = seg.Data[:len(seg.Data)-2]
				return p
			},
			code: CodeTruncated,
		},
		{
			name: "loop accumulates stack depth",
			build: func(t *testing.T) *asm.Program {
				b := asm.NewBuilder(0x1000)
				b.I(isa.OpADDI, 10, isa.RegZero, 8)
				b.Label("loop")
				b.I(isa.OpADDI, isa.RegSP, isa.RegSP, -16) // push, never popped
				b.I(isa.OpADDI, 10, 10, -1)
				b.Branch(isa.OpBNE, 10, isa.RegZero, "loop")
				exitSeq(b, 0)
				return b.MustFinish()
			},
			code:   CodeStackImbalance,
			substr: "stack depth",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := Analyze(tc.build(t))
			errs := a.Errors()
			if len(errs) == 0 {
				t.Fatalf("verifier accepted the corrupt image; diags:%s", diagStrings(a.Diags()))
			}
			if !hasCode(errs, tc.code) {
				t.Fatalf("no %v error; got:%s", tc.code, diagStrings(errs))
			}
			if a.Err() == nil {
				t.Fatal("Err() = nil despite verifier errors")
			}
			if tc.substr == "" {
				return
			}
			found := false
			for _, d := range errs {
				if d.Code == tc.code && strings.Contains(d.Msg, tc.substr) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no %v error mentioning %q; got:%s", tc.code, tc.substr, diagStrings(errs))
			}
		})
	}
}

// TestVerifyWarnings checks the advisory findings: they must be
// reported, but must not fail the load (Err() stays nil).
func TestVerifyWarnings(t *testing.T) {
	t.Run("uninitialized register read", func(t *testing.T) {
		b := asm.NewBuilder(0x1000)
		b.R(isa.OpADD, 10, 7, 7) // r7 is never written anywhere
		exitSeq(b, 0)
		a := Analyze(b.MustFinish())
		if err := a.Err(); err != nil {
			t.Fatalf("warnings must not fail the load: %v", err)
		}
		warns := a.Warnings()
		if !hasCode(warns, CodeUninitRead) {
			t.Fatalf("no uninit-read warning; got:%s", diagStrings(a.Diags()))
		}
		for _, d := range warns {
			if d.Code == CodeUninitRead && !strings.Contains(d.Msg, "r7") {
				t.Errorf("uninit-read warning for the wrong register: %s", d.Msg)
			}
			if d.Code == CodeUninitRead && d.Addr != 0x1000 {
				t.Errorf("uninit-read anchored at %#x, want first read site 0x1000", d.Addr)
			}
		}
	})
	t.Run("exit syscall args are not uninit reads", func(t *testing.T) {
		// A bare exit must not flag r2..r5: a syscall counts as reading
		// only r1, whatever its number.
		b := asm.NewBuilder(0x1000)
		exitSeq(b, 0)
		a := Analyze(b.MustFinish())
		if hasCode(a.Diags(), CodeUninitRead) {
			t.Fatalf("bare exit flagged uninit reads:%s", diagStrings(a.Diags()))
		}
	})
	t.Run("provable self-modifying store", func(t *testing.T) {
		b := asm.NewBuilder(0x1000)
		b.Label("code")
		b.La(10, "code")
		b.I(isa.OpSW, 11, 10, 0) // store onto our own first instruction
		exitSeq(b, 0)
		a := Analyze(b.MustFinish())
		if err := a.Err(); err != nil {
			t.Fatalf("warnings must not fail the load: %v", err)
		}
		if !hasCode(a.Warnings(), CodeSMCStore) {
			t.Fatalf("no smc-store warning; got:%s", diagStrings(a.Diags()))
		}
	})
	t.Run("labelled loop head in a called function", func(t *testing.T) {
		// The loop label makes its block a function entry of the call
		// graph, but no call reaches it: only f's frame is checked, and
		// f pops what it pushes. Dropping the pop must still warn.
		const src = `	.entry main
main:
	li r10, 4
	call f
	li r1, 1
	li r2, 0
	syscall
f:
	addi sp, sp, -8
loop:
	addi r10, r10, -1
	bne r10, r0, loop
	addi sp, sp, 8
	ret
`
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		z := analyze(p, true)
		if loop := blockID(t, z.Analysis, p.Symbols["loop"]); !slices.Contains(z.ip.fns, loop) {
			t.Fatal("the loop head is no call-graph function entry; the case tests nothing")
		}
		if d := z.Diags(); len(d) > 0 {
			t.Fatalf("balanced program raised findings:%s", diagStrings(d))
		}
		p, err = asm.Assemble(strings.Replace(src, "\taddi sp, sp, 8\n", "", 1))
		if err != nil {
			t.Fatal(err)
		}
		if !hasCode(Analyze(p).Warnings(), CodeCallImbalance) {
			t.Fatal("f returns 8 bytes deep without a call-imbalance warning")
		}
	})
	t.Run("unreachable garbage words", func(t *testing.T) {
		b := asm.NewBuilder(0x1000)
		exitSeq(b, 0)
		b.Word(0xdead_beef) // unreachable and undecodable
		a := Analyze(b.MustFinish())
		if err := a.Err(); err != nil {
			t.Fatalf("unreachable garbage must not fail the load: %v", err)
		}
		if !hasCode(a.Warnings(), CodeUnreachable) {
			t.Fatalf("no unreachable warning; got:%s", diagStrings(a.Diags()))
		}
	})
}

// TestVerifyCatalogClean is the regression backstop: every synthetic
// SPEC2000 stand-in the harness can run must pass the verifier with
// zero findings, errors or warnings, both at full scale and at the
// scale the benchmark tests use.
func TestVerifyCatalogClean(t *testing.T) {
	for _, spec := range workload.Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, scale := range []float64{1, 0.02} {
				p, err := spec.Scaled(scale).Build()
				if err != nil {
					t.Fatalf("build at scale %v: %v", scale, err)
				}
				a := Analyze(p)
				if err := a.Err(); err != nil {
					t.Fatalf("verifier rejected %s at scale %v: %v%s",
						spec.Name, scale, err, diagStrings(a.Errors()))
				}
				if a.NumBlocks() == 0 {
					t.Fatalf("no blocks recovered at scale %v", scale)
				}
				if w := a.Warnings(); len(w) > 0 {
					t.Fatalf("scale %v: %d warning(s):%s", scale, len(w), diagStrings(w))
				}
			}
		})
	}
}

// TestVerifyExamplesClean verifies the shipped example programs
// (transcribed into testdata with provenance headers) load clean.
func TestVerifyExamplesClean(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.svasm"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found (err=%v)", err)
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			p, err := asm.Assemble(string(src))
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			a := Analyze(p)
			if err := a.Err(); err != nil {
				t.Fatalf("verifier rejected example: %v%s", err, diagStrings(a.Errors()))
			}
		})
	}
}
