package kernel

import (
	"testing"

	"superpin/internal/mem"
)

// referenceBudget is the per-process quantum budget formula: process i
// of n running ones on cfg's machine, with SMP contention over the busy
// cores and HTFactor for the last 2(n-P) processes when n exceeds the
// physical cores P.
func referenceBudget(cfg Config, n, i int) Cycles {
	cost := cfg.Cost
	p := cfg.CPUs
	busyCores := n
	if busyCores > p {
		busyCores = p
	}
	smp := 1.0 / (1.0 + cost.SMPAlpha*float64(busyCores-1))
	sharedFrom := n
	if n > p {
		sharedFrom = 2*p - n
	}
	factor := smp
	if i >= sharedFrom {
		factor *= cost.HTFactor
	}
	budget := Cycles(float64(cost.Quantum) * factor)
	if budget == 0 {
		budget = 1
	}
	return budget
}

// TestContentionBudgets pins the budget table New precomputes against
// the formula, bit for bit, for every running count and every position
// in the running list, with hyperthreading on and off.
func TestContentionBudgets(t *testing.T) {
	tiny := DefaultCost()
	tiny.Quantum = 1 // budgets round to zero and clamp to one
	odd := DefaultCost()
	odd.Quantum = 997
	odd.HTFactor = 0.333
	odd.SMPAlpha = 0.07
	for _, cost := range []CostModel{DefaultCost(), tiny, odd} {
		for _, ht := range []bool{false, true} {
			for _, cpus := range []int{1, 2, 3, 8} {
				cfg := Config{CPUs: cpus, Hyperthreading: ht, Cost: cost}
				k := New(cfg)
				if len(k.budgets) != k.Contexts() {
					t.Fatalf("cpus=%d ht=%v: %d budget rows, want %d", cpus, ht, len(k.budgets), k.Contexts())
				}
				for n := 1; n <= k.Contexts(); n++ {
					row := k.budgets[n-1]
					for i := 0; i < n; i++ {
						got := row.plain
						if i >= row.sharedFrom {
							got = row.shared
						}
						if want := referenceBudget(cfg, n, i); got != want {
							t.Errorf("quantum=%d cpus=%d ht=%v n=%d i=%d: budget %d, want %d",
								cost.Quantum, cpus, ht, n, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestChargeCow checks that a delta of N copy-on-write copies is charged
// exactly N*PageCopy once, and that a second call with no new copies
// charges nothing.
func TestChargeCow(t *testing.T) {
	k := New(DefaultConfig())
	parent := mem.New()
	for pn := uint32(0); pn < 8; pn++ {
		parent.StoreWord(pn*mem.PageSize, pn)
	}
	child := parent.Fork()
	p := &Proc{Mem: child}
	if cy := p.ChargeCow(k.PageCopy()); cy != 0 {
		t.Fatalf("charge before any copy = %d, want 0", cy)
	}
	const n = 5
	for pn := uint32(0); pn < n; pn++ {
		child.StoreWord(pn*mem.PageSize+4, 1)
	}
	if child.CopyEvents != n {
		t.Fatalf("CopyEvents = %d, want %d", child.CopyEvents, n)
	}
	want := Cycles(n) * k.PageCopy()
	if cy := p.ChargeCow(k.PageCopy()); cy != want {
		t.Fatalf("charge = %d, want %d", cy, want)
	}
	if p.CowCost != want {
		t.Fatalf("CowCost = %d, want %d", p.CowCost, want)
	}
	if p.CowPending() {
		t.Fatal("CowPending after ChargeCow")
	}
	if cy := p.ChargeCow(k.PageCopy()); cy != 0 {
		t.Fatalf("second charge = %d, want 0", cy)
	}
	if p.CowCost != want {
		t.Fatalf("CowCost after second charge = %d, want %d", p.CowCost, want)
	}
}
