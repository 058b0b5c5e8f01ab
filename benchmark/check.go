package main

import (
	"fmt"
	"io"
)

// checkOut is one line of the separation check.
type checkOut struct {
	Check  string `json:"check"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// separationChecks proves that the workloads stress the layers the
// workload table says they do: where a mechanism is claimed bypassed
// its counter is zero, where it is claimed dominant its share is large.
// It needs a full run (every workload, both passes).
func separationChecks(sum *summary) []checkOut {
	layer := func(workload, metric string) float64 {
		if wo := sum.find(workload); wo != nil {
			return wo.PerLayer[metric].Value
		}
		return 0
	}
	e2e := func(workload, metric string) float64 {
		if wo := sum.find(workload); wo != nil {
			return wo.EndToEnd[metric].Value
		}
		return 0
	}
	perMIns := func(workload, metric string) float64 {
		wo := sum.find(workload)
		if wo == nil || wo.GuestIns == 0 {
			return 0
		}
		return wo.PerLayer[metric].Value / (float64(wo.GuestIns) / 1e6)
	}
	var out []checkOut
	add := func(check string, ok bool, format string, args ...any) {
		out = append(out, checkOut{Check: check, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}

	v := layer("pin-icount1", "pin.hot_ins")
	add("pin-icount1 bypasses the hot tier (pin.hot_ins = 0)", v == 0, "pin.hot_ins = %.0f", v)
	v = layer("pin-icount2", "pin.hot_ins_ratio")
	add("pin-icount2 retires in the hot tier (pin.hot_ins_ratio >= 0.6)", v >= 0.6, "pin.hot_ins_ratio = %.3f", v)
	for _, name := range []string{"pin-icount1", "pin-icount2", "coldstart"} {
		v = layer(name, "pin.if_calls")
		add(name+" makes no If-calls (pin.if_calls = 0)", v == 0, "pin.if_calls = %.0f", v)
	}
	v = layer("pin-ifcall", "pin.if_calls")
	add("pin-ifcall makes If-calls (pin.if_calls > 0)", v > 0, "pin.if_calls = %.0f", v)
	sp, serial := perMIns("sp-gcc", "jit.compiles"), perMIns("pin-icount1", "jit.compiles")
	add("sp-gcc recompiles (jit.compiles per M guest instructions >= 10x pin-icount1's)", sp >= 10*serial && sp > 0,
		"sp-gcc %.1f, pin-icount1 %.1f compiles per M instructions", sp, serial)
	cold, steady := e2e("coldstart", "guest_mips"), e2e("pin-icount2", "guest_mips")
	add("coldstart is load-bound (guest_mips <= 1/5 of pin-icount2's)", cold > 0 && cold <= steady/5,
		"coldstart %.2f, pin-icount2 %.2f Mins/s", cold, steady)
	return out
}

func printSeparation(w io.Writer, checks []checkOut) bool {
	fmt.Fprintln(w, "\nseparation check")
	all := true
	for _, c := range checks {
		mark := "ok  "
		if !c.OK {
			mark, all = "FAIL", false
		}
		fmt.Fprintf(w, "  %s %s  [%s]\n", mark, c.Check, c.Detail)
	}
	return all
}
