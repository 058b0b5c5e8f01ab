package jit

import "testing"

// buildTraces builds the distinct traces of a small program (one per
// basic-block entry) for cache tests.
func buildTraces(t *testing.T) []*Trace {
	t.Helper()
	m, p := loadSrc(t, `
main:
	addi r1, r1, 1
	beq r1, r2, alt
	addi r3, r3, 1
	j main
alt:
	addi r4, r4, 1
	addi r5, r5, 1
	j main
`)
	const progIns = 7
	var trs []*Trace
	for pc := p.Entry; pc < p.Entry+progIns*4; pc += 4 {
		tr, err := BuildTrace(m, pc)
		if err != nil {
			t.Fatalf("pc %#x: %v", pc, err)
		}
		trs = append(trs, tr)
	}
	return trs
}

// TestTraceCacheInsertFirstWins checks that Insert publishes at once
// and never replaces a published translation.
func TestTraceCacheInsertFirstWins(t *testing.T) {
	trs := buildTraces(t)
	tc := NewTraceCache()
	tc.Insert(trs[0])
	clone := *trs[0]
	tc.Insert(&clone)
	if got, ok := tc.Lookup(trs[0].Addr); !ok || got != trs[0] {
		t.Fatal("lookup did not return the first-published trace")
	}
	if _, ok := tc.Lookup(trs[1].Addr); ok {
		t.Fatal("lookup hit a PC nothing was published for")
	}
}

// TestTraceCacheVisibility drives the Section 8 visibility rule from one
// goroutine, as a SuperPin run does. Each case is a sequence of steps
// at virtual times: a slice's build of a translation, an offer of code
// compiled from one, or a lookup and the translation it must return
// (nil for none). Slice 0 looks up through Lookup, the others through
// Visible. a and b are two translations of one PC, as two slices with
// different split points build them.
func TestTraceCacheVisibility(t *testing.T) {
	a := buildTraces(t)[0]
	clone := *a
	b := &clone
	type step struct {
		op    string // "build", "code" or "see"
		slice int
		now   uint64
		tr    *Trace
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"lower slice wins at the barrier", []step{
			{"build", 2, 10, a}, {"build", 1, 10, b},
			{"see", 0, 10, b}, {"see", 3, 20, b}, {"see", 2, 20, b}, {"see", 1, 20, b},
		}},
		{"each slice sees its own build in the quantum", []step{
			{"build", 2, 10, a}, {"build", 1, 10, b},
			{"see", 2, 10, a}, {"see", 1, 10, b}, {"see", 3, 10, nil},
		}},
		{"a slice's first build in a quantum counts", []step{
			{"build", 1, 10, a}, {"build", 1, 10, b},
			{"see", 1, 10, a}, {"see", 2, 20, a},
		}},
		{"a published entry is never replaced", []step{
			{"build", 2, 10, a}, {"see", 1, 20, a},
			{"build", 1, 20, b}, {"see", 1, 20, a}, {"see", 1, 30, a}, {"see", 0, 30, a},
		}},
		{"an offer of code leaves the translation", []step{
			{"build", 2, 10, a}, {"code", 1, 10, b}, {"see", 1, 20, a},
			{"code", 3, 20, b}, {"see", 3, 30, a}, {"see", 0, 30, a},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tc := NewTraceCache()
			for i, s := range c.steps {
				switch s.op {
				case "build":
					tc.Built(s.tr, s.slice, s.now)
				case "code":
					tc.SetCode(Compile(s.tr), s.tr)
					if ct, src := tc.Code(s.tr.Addr); ct == nil || src != s.tr {
						t.Fatalf("step %d: the cache does not hold the offered code", i)
					}
				case "see":
					var got *Trace
					var ok bool
					if s.slice == 0 {
						got, ok = tc.Lookup(a.Addr)
					} else {
						got, ok = tc.Visible(a.Addr, s.slice, s.now)
					}
					if got != s.tr || ok != (s.tr != nil) {
						t.Fatalf("step %d: slice %d at %d sees %p (%t), want %p", i, s.slice, s.now, got, ok, s.tr)
					}
				}
			}
		})
	}
}

// TestTraceCacheLayout checks that the first layout sticks.
func TestTraceCacheLayout(t *testing.T) {
	tc := NewTraceCache()
	if !tc.UseLayout([]int{1}) || !tc.UseLayout([]int{1}) {
		t.Fatal("the first layout does not match itself")
	}
	if tc.UseLayout([]int{1, 2}) || tc.UseLayout(nil) {
		t.Fatal("another layout matched the first")
	}
}
