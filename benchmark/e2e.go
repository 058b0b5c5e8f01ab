package main

import (
	"fmt"
	"runtime"
	"time"
)

const (
	warmupRounds = 2
	// setupRepeats is how many times a run sets a workload up from
	// scratch; setup_s is the median, so one cold first pass (page
	// faults, heap growth) does not decide it.
	setupRepeats = 5
)

// tally counts attempted and failed runs and keeps the first few
// failure messages for the report. Drift counts runs on several host
// workers whose simulated outcome differed from the first repetition's
// (see sameAsFirst); they are reported, not failed.
type tally struct {
	Attempted int
	Failed    int
	Drift     int
	Errors    []string
}

func (t *tally) fail(err error) {
	t.Failed++
	if len(t.Errors) < 5 {
		t.Errors = append(t.Errors, err.Error())
	}
}

// prepared is a workload ready for timed rounds: images built, native
// references taken, warm-up rounds done, and the first repetition's
// virtual times recorded as the bit-for-bit expectation of every later
// round.
type prepared struct {
	w     workloadDef
	rc    runCfg
	progs []*program
	// first[i] is program i's first repetition under the workload's own
	// configuration: virtual time and exit code must repeat exactly.
	first []runOut
	// guestIns is one round's guest instruction count, from the native
	// references.
	guestIns uint64
}

// round runs every program of the workload once, sequentially, under
// the workload's own configuration, holding each run to the first
// repetition. See runRound.
func (p *prepared) round(clk *hostClock, t *tally, outs []runOut) sample {
	return runRound("", p.progs, p.rc, p.first, clk, t, outs)
}

// runRound runs every program once under rc and returns the round's
// time: the sum of its runs, each calibrated on its own so a clock
// change between two runs of a round is seen. A run that fails
// verification — or, when first is non-nil, differs from the first
// repetition — lands in t, prefixed with label when there is one. outs,
// when non-nil, receives each run's result.
func runRound(label string, progs []*program, rc runCfg, first []runOut, clk *hostClock, t *tally, outs []runOut) sample {
	var total sample
	for i, prog := range progs {
		t.Attempted++
		var out runOut
		var err error
		total.add(clk.measure(func() { out, err = execRun(prog, rc) }))
		if err == nil && first != nil {
			err = t.sameAsFirst(prog, rc, out, first[i])
		}
		if err != nil && label != "" {
			err = fmt.Errorf("%s: %w", label, err)
		}
		if err != nil {
			t.fail(err)
		}
		if outs != nil {
			outs[i] = out
		}
	}
	return total
}

// sameAsFirst holds a run to the first repetition's simulated outcome.
// On one host worker the simulation is a pure function of the image, so
// any difference is a model change or a nondeterminism and fails the
// run. On several the system does not repeat bit for bit today: whether
// the master or a slice is first to store to a shared page decides who
// pays the copy, which moves the master's timer-driven fork points by a
// few instructions and the total by a few hundred cycles (seen on 6 % of
// mgrid.s601152604 runs at 2 workers; instruction counts and tool totals
// still agree, and verify holds every run to those). Such a run is
// counted in t.Drift and reported, not failed.
func (t *tally) sameAsFirst(prog *program, rc runCfg, out, first runOut) error {
	var err error
	switch {
	case out.VTime != first.VTime:
		err = fmt.Errorf("%s: virtual time %d, first repetition %d", prog.spec.Name, out.VTime, first.VTime)
	case out.Exit != first.Exit:
		err = fmt.Errorf("%s: exit code %d, first repetition %d", prog.spec.Name, out.Exit, first.Exit)
	}
	if err != nil && rc.Workers > 1 {
		t.Drift++
		return nil
	}
	return err
}

// setup is the whole per-workload set-up the setup_s metric times:
// Spec.Build of the programs, the native reference runs and the
// warm-up rounds. The returned sample is their sum.
func setup(w workloadDef, o options, clk *hostClock, t *tally) (*prepared, sample, error) {
	var p *prepared
	var err error
	var total sample
	total.add(clk.measure(func() {
		var progs []*program
		if progs, err = buildPrograms(w, o.seed, o.scaleMul); err != nil {
			return
		}
		p = &prepared{w: w, rc: w.runCfg(o.workers), progs: progs}
		for _, prog := range progs {
			if err = runReference(prog); err != nil {
				return
			}
			p.guestIns += prog.ref.Ins
		}
	}))
	if err != nil {
		return nil, total, err
	}
	first := make([]runOut, len(p.progs))
	total.add(p.round(clk, t, first))
	p.first = first
	for r := 1; r < warmupRounds; r++ {
		total.add(p.round(clk, t, nil))
	}
	return p, total, nil
}

// vSlowdownPct is the paper's Fig. 3/5 axis: the arithmetic mean over
// the workload's programs of mode virtual time ÷ native virtual time,
// in percent. Simulated time: it repeats bit for bit.
func (p *prepared) vSlowdownPct() float64 {
	sum := 0.0
	for i, prog := range p.progs {
		sum += 100 * float64(p.first[i].VTime) / float64(prog.ref.Time)
	}
	return sum / float64(len(p.progs))
}

// e2eResult is one workload's end-to-end measurement.
type e2eResult struct {
	Workload     string
	GuestIns     uint64   // per round
	Rounds       []sample // one per timed round
	Setups       []sample // one per set-up repetition
	VSlowdownPct float64
	Tally        tally
}

// project maps samples through one of sample's accessors (sample.ms,
// sample.wallMS, sample.seconds).
func project(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// mips converts a round time in ms to M guest instructions per second.
func (r *e2eResult) mips(roundMS float64) float64 {
	return float64(r.GuestIns) / 1e3 / roundMS
}

// measureE2E sets the workload up setupRepeats times, then times rounds
// on the last set-up: o.rounds of them when fixed, otherwise until
// o.seconds have passed and at least minRounds are in.
func measureE2E(w workloadDef, o options, clk *hostClock) (*e2eResult, *prepared, error) {
	res := &e2eResult{Workload: w.Name}
	var p *prepared
	for i := 0; i < o.repeats(setupRepeats); i++ {
		var s sample
		var err error
		if p, s, err = setup(w, o, clk, &res.Tally); err != nil {
			return nil, nil, err
		}
		res.Setups = append(res.Setups, s)
	}
	res.GuestIns = p.guestIns
	res.VSlowdownPct = p.vSlowdownPct()

	runtime.GC()
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for n := 0; ; n++ {
		if o.rounds > 0 {
			if n >= o.rounds {
				break
			}
		} else if n >= minRounds && !time.Now().Before(deadline) {
			break
		}
		res.Rounds = append(res.Rounds, p.round(clk, &res.Tally, nil))
	}
	clk.settleAll(res.Setups)
	clk.settleAll(res.Rounds)
	return res, p, nil
}
