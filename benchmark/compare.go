package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of -compare, per (metric, workload).
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
	verdictEqual      = "equal"
	verdictDiffers    = "DIFFERS"
	verdictInfo       = "-"
)

// judge compares a metric of the baseline set a with the same metric of
// set b.
//
//   - An exact metric (simulated time, a count) must be equal.
//   - A bounded metric is worse or better when b's median moved by more
//     than the bound in that direction, otherwise unchanged — unless
//     either set's interquartile range is wider than the bound and the
//     two ranges overlap: then the runs cannot tell, and the verdict is
//     unresolved rather than unchanged.
//   - Anything else (an unbounded layer timing) is informational.
func judge(a, b metricOut) string {
	if a.Exact || b.Exact {
		if a.Value == b.Value {
			return verdictEqual
		}
		return verdictDiffers
	}
	if a.Bound == nil {
		return verdictInfo
	}
	bound := *a.Bound
	worse := (b.Value - a.Value) / math.Abs(a.Value)
	if a.Better == "higher" {
		worse = -worse
	}
	if (iqrShare(a) > bound || iqrShare(b) > bound) && !separated(a, b) {
		return verdictUnresolved
	}
	switch {
	case worse > bound:
		return verdictWorse
	case worse < -bound:
		return verdictBetter
	}
	return verdictUnchanged
}

func iqrShare(m metricOut) float64 {
	if m.Q1 == nil || m.Q3 == nil || m.Value == 0 {
		return 0
	}
	return math.Abs(*m.Q3-*m.Q1) / math.Abs(m.Value)
}

// separated reports whether the two interquartile ranges do not overlap.
func separated(a, b metricOut) bool {
	if a.Q1 == nil || a.Q3 == nil || b.Q1 == nil || b.Q3 == nil {
		return false
	}
	alo, ahi := math.Min(*a.Q1, *a.Q3), math.Max(*a.Q1, *a.Q3)
	blo, bhi := math.Min(*b.Q1, *b.Q3), math.Max(*b.Q1, *b.Q3)
	return ahi < blo || bhi < alo
}

func loadSummary(path string) (*summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles prints the verdict table of two summaries and returns 1
// when any metric is worse or any exact metric differs.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadSummary(pathA)
	if err == nil {
		var b *summary
		if b, err = loadSummary(pathB); err == nil {
			return compareSummaries(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

func compareSummaries(a, b *summary, w io.Writer) int {
	if a.Seed != b.Seed || a.ScaleMul != b.ScaleMul || a.Workers != b.Workers {
		fmt.Fprintf(w, "warning: settings differ (seed %d/%d, scalemul %g/%g, workers %d/%d); exact metrics will too\n",
			a.Seed, b.Seed, a.ScaleMul, b.ScaleMul, a.Workers, b.Workers)
	}
	counts := map[string]int{}
	section := func(scope string, ma, mb map[string]metricOut) {
		names := make([]string, 0, len(ma))
		for name := range ma {
			if _, ok := mb[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			x, y := ma[name], mb[name]
			v := judge(x, y)
			counts[v]++
			fmt.Fprintf(w, "%-12s %-28s %14.4f %14.4f %-7s %+8.2f%%  %s\n", scope, name, x.Value, y.Value, x.Unit,
				100*ratio(y.Value-x.Value, math.Abs(x.Value)), v)
		}
	}
	fmt.Fprintf(w, "%-12s %-28s %14s %14s %-7s %9s  %s\n", "workload", "metric", "a", "b", "unit", "change", "verdict")
	for _, wa := range a.Workloads {
		wb := b.find(wa.Name)
		if wb == nil {
			continue
		}
		section(wa.Name, wa.EndToEnd, wb.EndToEnd)
	}
	for _, wa := range a.Workloads {
		if wb := b.find(wa.Name); wb != nil {
			section(wa.Name, wa.PerLayer, wb.PerLayer)
		}
	}
	section("(layers)", a.Layers, b.Layers)
	fmt.Fprintf(w, "\n%d better, %d worse, %d unchanged, %d unresolved; exact: %d equal, %d differ\n",
		counts[verdictBetter], counts[verdictWorse], counts[verdictUnchanged], counts[verdictUnresolved],
		counts[verdictEqual], counts[verdictDiffers])
	if counts[verdictWorse] > 0 || counts[verdictDiffers] > 0 {
		return 1
	}
	return 0
}
