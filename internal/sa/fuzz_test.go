package sa

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"superpin/internal/asm"
	"superpin/internal/isa"
)

// fuzzSeeds are the assembly sources both fuzz targets start from.
var fuzzSeeds = []string{
	"",
	"li r1, 1\nsyscall\n",
	"main: add r1, r2, r3\nbeq r1, r2, main\n",
	// stack push/pop pairs around a counted loop
	"li r10, 4\nloop: addi sp, sp, -8\naddi sp, sp, 8\naddi r10, r10, -1\nbne r10, r0, loop\nli r1, 1\nsyscall\n",
	// an imbalanced loop the verifier must reject, not crash on
	"loop: addi sp, sp, -8\nj loop\n",
	// call/ret through a helper, data behind .org
	".entry main\nsq: mul r2, r2, r2\nret\nmain: li r2, 9\ncall sq\nli r1, 1\nsyscall\n.org 0x2000\nd: .word 7\n",
	// self-modifying store onto a labelled instruction
	".entry main\nmain: la r5, main\nsw r6, (r5)\nli r1, 1\nsyscall\n",
	// indirect dispatch: the JALR target is statically unknown
	"main: la r5, k\njalr r31, r5, 0\nli r1, 1\nsyscall\nk: ret\n",
	// raw garbage words mixed into the image
	"main: j over\n.word 0xffffffff, 0xdeadbeef\nover: li r1, 1\nsyscall\n",
	// spawn-shaped syscall (r1 not a provable exit)
	"main: li r1, 11\nla r2, main\nsyscall\nli r1, 1\nsyscall\n",
	// direct recursion: f calls itself behind a counter
	".entry main\nf: addi r10, r10, -1\nbeq r10, r0, out\ncall f\nout: ret\nmain: li r10, 3\ncall f\nli r1, 1\nsyscall\n",
	// mutual recursion: even/odd bouncing through two functions
	".entry main\neven: beq r10, r0, yes\naddi r10, r10, -1\ncall odd\nret\nyes: li r11, 1\nret\nodd: beq r10, r0, no\naddi r10, r10, -1\ncall even\nret\nno: li r11, 0\nret\nmain: li r10, 6\ncall even\nli r1, 1\nsyscall\n",
	// jalr dispatch through a constant table (the resolvable shape)
	".entry main\nmain: la r4, tab\nlw r5, (r4)\njalr r31, r5, 0\nli r1, 1\nsyscall\n.org 0x2000\nk0: ret\n.org 0x3000\ntab: .word 0x2000\n",
	// function-shaped body nothing calls (unreachable-fn shape)
	".entry main\ndead: addi r3, r0, 7\nret\nmain: li r1, 1\nsyscall\n",
	// nine chained indirect calls: each continuation is reached only
	// once the call before it resolves, so resolution runs out of
	// rounds and the call graph is rebuilt on the final CFG
	".entry main\nk: ret\nmain:\n" + strings.Repeat("la r5, k\njalr r31, r5, 0\n", 9) + "li r1, 1\nsyscall\n",
}

// FuzzAnalyze feeds arbitrary assembly sources through the
// assemble→analyze pipeline: whatever assembles must analyze without
// panicking, and the resulting Analysis must uphold its structural
// invariants (diagnostics ordered errors-first, Err consistent with
// Errors, predecode agreeing with a fresh Decode of the image words).
// Two checks cover analyze's reuse of the last resolution round's call
// graph: it must equal a fresh build on the final CFG, and a second
// Analyze of the same program must encode byte for byte the same.
func FuzzAnalyze(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := asm.Assemble(src)
		if err != nil {
			return
		}
		z := analyze(p, true)
		a := z.Analysis
		if z.ip != nil && !reflect.DeepEqual(z.ip, rebuiltAnalyzer(a).buildInterproc()) {
			t.Fatal("the call graph kept from resolution differs from a fresh build on the final CFG")
		}
		if !bytes.Equal(a.Encode(), Analyze(p).Encode()) {
			t.Fatal("two analyses of one program encode differently")
		}

		diags := a.Diags()
		seenWarn := false
		for _, d := range diags {
			if d.Sev == SevWarn {
				seenWarn = true
			} else if seenWarn {
				t.Fatalf("Diags not ordered errors-first: %v", diags)
			}
		}
		if (a.Err() != nil) != (len(a.Errors()) > 0) {
			t.Fatalf("Err() = %v inconsistent with %d error diags", a.Err(), len(a.Errors()))
		}

		// Round-trip every image word: the shared predecode must agree
		// with a fresh decode.
		for _, seg := range p.Segments {
			start := (seg.Addr + 3) &^ 3
			for addr := start; addr+isa.WordSize <= seg.Addr+uint32(len(seg.Data)); addr += isa.WordSize {
				off := addr - seg.Addr
				w := uint32(seg.Data[off]) | uint32(seg.Data[off+1])<<8 |
					uint32(seg.Data[off+2])<<16 | uint32(seg.Data[off+3])<<24
				run, ok := a.Predecoded(addr)
				if !ok || len(run) == 0 {
					t.Fatalf("Predecoded(%#x) missing for an image word", addr)
				}
				if in, err := isa.Decode(w); err == nil && run[0].Inst != in {
					t.Fatalf("predecode mismatch at %#x: %v != %v", addr, run[0].Inst, in)
				}
				if leader, ok := a.BlockLeader(addr); ok && !func() bool {
					_, _, found := a.locate(leader)
					return found
				}() {
					t.Fatalf("BlockLeader(%#x) = %#x outside the image", addr, leader)
				}
			}
		}
	})
}

// FuzzDecode feeds arbitrary payloads to Decode against the image of an
// assembly source. Decode must return an error or an Analysis that
// re-encodes byte for byte to the payload; the program's own encoding
// must decode to the original diagnostics and block count. Seeds are
// the encodings of the FuzzAnalyze sources plus truncated and
// bit-flipped copies.
func FuzzDecode(f *testing.F) {
	for _, src := range fuzzSeeds {
		p, err := asm.Assemble(src)
		if err != nil {
			continue
		}
		blob := Analyze(p).Encode()
		flipped := bytes.Clone(blob)
		flipped[len(flipped)/2] ^= 0x10
		f.Add(src, blob)
		f.Add(src, blob[:len(blob)/2])
		f.Add(src, flipped)
	}
	f.Fuzz(func(t *testing.T, src string, blob []byte) {
		p, err := asm.Assemble(src)
		if err != nil {
			return
		}
		want := Analyze(p)
		got, err := Decode(blob, p)
		if bytes.Equal(blob, want.Encode()) {
			if err != nil {
				t.Fatalf("decode rejected the program's own encoding: %v", err)
			}
			if !reflect.DeepEqual(got.Diags(), want.Diags()) || got.NumBlocks() != want.NumBlocks() {
				t.Fatalf("decoded %d blocks, diags %v; want %d, %v",
					got.NumBlocks(), got.Diags(), want.NumBlocks(), want.Diags())
			}
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got.Encode(), blob) {
			t.Fatal("an accepted payload does not re-encode byte for byte")
		}
	})
}
