package bench

import (
	"fmt"

	"superpin/internal/core"
	"superpin/internal/kernel"
	"superpin/internal/obs"
)

// VerifyTrace checks a SuperPin run's event stream against its Result
// (the differential harness applies it to every SuperPin run):
//
//  1. timestamps are non-decreasing per track (per guest process, and
//     per CPU context for occupancy spans, which also must not overlap),
//  2. sleep intervals and process lifetimes are balanced (every sleep
//     has a wake, every spawn/fork an exit),
//  3. every slice's lifecycle is ordered spawn <= detect <= merge,
//  4. the Figure 6 breakdown reconstructed from the trace alone equals
//     Result.Breakdown(native) exactly (integer cycles).
func VerifyTrace(events []obs.Event, res *core.Result, native kernel.Cycles) error {
	if len(events) == 0 {
		return fmt.Errorf("trace: no events")
	}

	lastTS := map[int32]uint64{}     // per guest-process track
	cpuEnd := map[int32]uint64{}     // per CPU track: end of last span
	sleepStart := map[int32]uint64{} // open sleep interval per pid
	sleepTotal := map[int32]uint64{} // closed sleep cycles per pid
	alive := map[int32]bool{}        // spawned/forked, not yet exited
	exitTime := map[int32]uint64{}   //
	spawnT := map[uint64]uint64{}    // slice num -> spawn time
	detectT := map[uint64]uint64{}   // slice num -> detect time
	mergeT := map[uint64]uint64{}    // slice num -> merge time
	var masterPID int32 = -1
	var mergeMax uint64

	for i, ev := range events {
		if ev.Kind == obs.EvSchedule {
			if end := cpuEnd[ev.CPU]; ev.Time < end {
				return fmt.Errorf("trace: cpu%d span at t=%d overlaps previous (ends %d)",
					ev.CPU, ev.Time, end)
			}
			cpuEnd[ev.CPU] = ev.Time + ev.Dur
			continue
		}
		if ev.Time < lastTS[ev.PID] {
			return fmt.Errorf("trace: event %d (%v pid %d) at t=%d before track high-water %d",
				i, ev.Kind, ev.PID, ev.Time, lastTS[ev.PID])
		}
		lastTS[ev.PID] = ev.Time

		switch ev.Kind {
		case obs.EvProcSpawn, obs.EvFork:
			if alive[ev.PID] {
				return fmt.Errorf("trace: pid %d spawned twice", ev.PID)
			}
			alive[ev.PID] = true
			if ev.Kind == obs.EvProcSpawn && ev.Name == "master" && masterPID < 0 {
				masterPID = ev.PID
			}
		case obs.EvProcExit:
			if !alive[ev.PID] {
				return fmt.Errorf("trace: pid %d exited without spawn", ev.PID)
			}
			alive[ev.PID] = false
			exitTime[ev.PID] = ev.Time
		case obs.EvSleep:
			if _, open := sleepStart[ev.PID]; open {
				return fmt.Errorf("trace: pid %d slept twice without waking", ev.PID)
			}
			sleepStart[ev.PID] = ev.Time
		case obs.EvWake:
			start, open := sleepStart[ev.PID]
			if !open {
				return fmt.Errorf("trace: pid %d woke without sleeping", ev.PID)
			}
			delete(sleepStart, ev.PID)
			sleepTotal[ev.PID] += ev.Time - start
		case obs.EvSliceSpawn:
			spawnT[ev.Arg] = ev.Time
		case obs.EvSliceDetect:
			detectT[ev.Arg] = ev.Time
		case obs.EvSliceMerge:
			mergeT[ev.Arg] = ev.Time
			if ev.Time > mergeMax {
				mergeMax = ev.Time
			}
		}
	}

	for pid := range alive {
		if alive[pid] {
			return fmt.Errorf("trace: pid %d never exited", pid)
		}
	}
	if len(sleepStart) != 0 {
		return fmt.Errorf("trace: %d sleep intervals left open", len(sleepStart))
	}
	if masterPID < 0 {
		return fmt.Errorf("trace: no master spawn event")
	}

	if len(spawnT) != len(res.Slices) {
		return fmt.Errorf("trace: %d slice spawns for %d slices", len(spawnT), len(res.Slices))
	}
	for num := uint64(1); num <= uint64(len(res.Slices)); num++ {
		s, okS := spawnT[num]
		d, okD := detectT[num]
		m, okM := mergeT[num]
		if !okS || !okD || !okM {
			return fmt.Errorf("trace: slice %d lifecycle incomplete (spawn=%v detect=%v merge=%v)",
				num, okS, okD, okM)
		}
		if s > d || d > m {
			return fmt.Errorf("trace: slice %d lifecycle out of order: spawn=%d detect=%d merge=%d",
				num, s, d, m)
		}
	}

	// Reconstruct the Figure 6 breakdown from the trace alone and compare
	// with the engine's own accounting, exactly.
	masterEnd, ok := exitTime[masterPID]
	if !ok {
		return fmt.Errorf("trace: master (pid %d) has no exit event", masterPID)
	}
	tMasterEnd := kernel.Cycles(masterEnd)
	tSleep := kernel.Cycles(sleepTotal[masterPID])
	tTotal := kernel.Cycles(mergeMax)
	var tFork, tPipeline kernel.Cycles
	tPipeline = tTotal - tMasterEnd
	if active := tMasterEnd - tSleep; active > native {
		tFork = active - native
	}

	wantNat, wantFork, wantSleep, wantPipe := res.Breakdown(native)
	if native != wantNat || tFork != wantFork || tSleep != wantSleep || tPipeline != wantPipe {
		return fmt.Errorf(
			"trace: reconstructed breakdown (nat=%d fork=%d sleep=%d pipe=%d) != Result.Breakdown (nat=%d fork=%d sleep=%d pipe=%d)",
			native, tFork, tSleep, tPipeline, wantNat, wantFork, wantSleep, wantPipe)
	}
	return nil
}
