package main

import (
	"sort"
	"time"
)

// Host time in this benchmark is calibrated. The sandboxes it runs in
// switch their CPU between speed states some 27 % apart (a fixed
// dependent multiply-add chain retires a step in 0.97 or 1.23 ns on the
// reference host, at times 1.10 or 1.35), holding a state for anything
// from a millisecond to minutes, so raw wall time is multimodal and no
// repetition count steadies its median. Every timed section is
// therefore bracketed by passes of that chain, every pass is logged
// with its time, and a section's wall time is scaled by the mean chain
// speed observed within calWindow of it to the nominal clock at which
// the chain retires one step per nanosecond. The window makes the
// estimate a low-pass filter: slow state changes are followed, fast
// flipping is averaged over the same span the section itself averaged.
// Raw wall figures are reported beside the calibrated ones as host.*
// layer metrics.
const (
	calIters  = 250_000
	calPasses = 4
	calWindow = time.Second
	// calFresh is how long the passes after one section also serve as
	// the passes before the next, so back-to-back sections share them.
	calFresh = 5 * time.Millisecond
)

// calSink keeps the calibration chain's result live.
var calSink uint64

// reading is one pass of the chain.
type reading struct {
	at     time.Time
	nsStep float64
}

// hostClock times sections and calibrates them afterwards, once the
// readings on both sides of each exist.
type hostClock struct {
	readings []reading // in time order
}

// calibrate logs calPasses passes of a dependent 64-bit multiply-add
// chain: latency-bound, no memory traffic, so it tracks the core's
// speed and nothing else.
func (c *hostClock) calibrate() {
	for r := 0; r < calPasses; r++ {
		start := time.Now()
		x := uint64(r + 1)
		for i := 0; i < calIters; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		calSink += x
		end := time.Now()
		c.readings = append(c.readings, reading{at: end, nsStep: float64(end.Sub(start)) / calIters})
	}
}

// sample is one timed section, or the sum of several.
type sample struct {
	Wall time.Duration
	Cal  time.Duration // Wall at the nominal clock; set by hostClock.settle
	// Step is the chain speed the section was calibrated with, in ns per
	// step (1.0 at the nominal clock).
	Step float64

	start, end time.Time
	parts      []sample // when the sample is a sum
}

// measure runs f between calibration passes and returns its raw
// duration. Call settle on the sample before reading Cal or Step.
func (c *hostClock) measure(f func()) sample {
	if n := len(c.readings); n == 0 || time.Since(c.readings[n-1].at) > calFresh {
		c.calibrate()
	}
	start := time.Now()
	f()
	end := time.Now()
	c.calibrate()
	return sample{Wall: end.Sub(start), start: start, end: end}
}

// measureNow is measure calibrated at once on its own bracketing
// passes alone: for short one-off sections of the layer pass, which no
// stream of neighbouring sections surrounds.
func (c *hostClock) measureNow(f func()) sample {
	s := c.measure(f)
	bracket := c.readings[max(0, len(c.readings)-2*calPasses):]
	s.Step = c.speed(bracket[0].at, bracket[len(bracket)-1].at)
	s.Cal = time.Duration(float64(s.Wall) / s.Step)
	return s
}

// add accumulates another section into s.
func (s *sample) add(o sample) {
	s.Wall += o.Wall
	s.parts = append(s.parts, o)
}

// settle fills in Cal and Step from the readings logged within
// calWindow of the section (of each part, for a sum).
func (c *hostClock) settle(s *sample) {
	if len(s.parts) > 0 {
		s.Cal, s.Step = 0, 0
		for i := range s.parts {
			p := &s.parts[i]
			c.settle(p)
			s.Cal += p.Cal
			s.Step += p.Step * float64(p.Wall)
		}
		if s.Wall > 0 {
			s.Step /= float64(s.Wall)
		}
		return
	}
	s.Step = c.speed(s.start.Add(-calWindow), s.end.Add(calWindow))
	s.Cal = time.Duration(float64(s.Wall) / s.Step)
}

func (c *hostClock) settleAll(ss []sample) {
	for i := range ss {
		c.settle(&ss[i])
	}
}

// speed is the mean chain speed over the readings in [from, to]. A pass
// an interrupt landed in reads far above either speed state; readings
// are capped at 1.5x the window's median so it counts as slow, not as
// an outlier that drags the mean.
func (c *hostClock) speed(from, to time.Time) float64 {
	lo := sort.Search(len(c.readings), func(i int) bool { return !c.readings[i].at.Before(from) })
	hi := sort.Search(len(c.readings), func(i int) bool { return c.readings[i].at.After(to) })
	if lo >= hi {
		return 1
	}
	vals := make([]float64, 0, hi-lo)
	for _, r := range c.readings[lo:hi] {
		vals = append(vals, r.nsStep)
	}
	limit := 1.5 * median(vals)
	sum := 0.0
	for _, v := range vals {
		sum += min(v, limit)
	}
	return sum / float64(len(vals))
}

func (s sample) ms() float64      { return float64(s.Cal) / float64(time.Millisecond) }
func (s sample) wallMS() float64  { return float64(s.Wall) / float64(time.Millisecond) }
func (s sample) seconds() float64 { return s.Cal.Seconds() }
