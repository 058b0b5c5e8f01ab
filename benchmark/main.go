// Command benchmark is the repository's benchmark: seven named workloads
// over the public entry points core.RunNative / core.RunPin / core.Run,
// end-to-end metrics with regression bounds, a layer pass of direct
// timed calls and ablations, and a traced pass whose spans are recorded
// by this program around each call. See README.md in this directory.
//
//	go run ./benchmark                         every workload, every pass
//	go run ./benchmark -workload sp-gcc        one workload
//	go run ./benchmark -workload sp-gcc -trace 1   its per-layer numbers only
//	go run ./benchmark -compare a.json b.json  verdict per (metric, workload)
//
// With -workload and -trace both given, the last line of standard output
// is the one-object result the benchmark harness reads (BENCHMARK.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	rounds   int
	scaleMul float64
	workers  int
	// trace selects the passes: 0 the end-to-end pass only, 1 the
	// per-layer passes only, -1 (the default) both.
	trace    int
	layers   bool
	jsonPath string
	outDir   string
}

// repeats is how often a pass repeats something it does def times by
// default: a fixed -rounds below def caps it, so `-rounds 1` is a quick
// pass through everything.
func (o options) repeats(def int) int {
	if o.rounds > 0 && o.rounds < def {
		return o.rounds
	}
	return def
}

// isolationEnv are the variables other entry points of the repository
// consult. The benchmark sets every such knob explicitly, so they have
// no effect here; a set one is still worth a warning, because the same
// shell's spbench/superpin runs would differ.
var isolationEnv = []string{"SUPERPIN_WORKERS", "SUPERPIN_CACHE", "SUPERPIN_SERVE", "SPBENCH_J"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	var compare bool
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all seven)")
	fs.Uint64Var(&o.seed, "seed", 0, "reseed the program generator (0 = catalog programs verbatim)")
	fs.Float64Var(&o.seconds, "seconds", 10, "timed seconds per workload (at least 40 rounds are always run)")
	fs.IntVar(&o.rounds, "rounds", 0, "fixed number of timed rounds per workload (overrides -seconds; also caps the repeats of the other passes)")
	fs.Float64Var(&o.scaleMul, "scalemul", 1, "multiply every workload's scale (tests use 0.04)")
	fs.IntVar(&o.workers, "workers", 0, "host workers of the parallel workload (default min(nproc, 4))")
	fs.IntVar(&o.trace, "trace", -1, "0: end-to-end pass only; 1: traced and layer passes only; default both")
	fs.BoolVar(&o.layers, "layers", true, "include the workload-independent layer pass in the per-layer numbers")
	fs.StringVar(&o.jsonPath, "json", "", "write the JSON summary to this file instead of standard output")
	fs.StringVar(&o.outDir, "out", "benchmark/out", "directory for trace.json and the scratch disk cache")
	fs.BoolVar(&compare, "compare", false, "compare two JSON summaries: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	nproc := runtime.NumCPU()
	gomaxprocs := min(nproc, 4)
	runtime.GOMAXPROCS(gomaxprocs)
	if o.workers == 0 {
		o.workers = gomaxprocs
	}
	if o.workers < 1 || o.workers > nproc {
		fmt.Fprintf(stderr, "benchmark: -workers %d outside 1..nproc (%d)\n", o.workers, nproc)
		return 2
	}
	if o.scaleMul <= 0 || o.seconds < 0 || o.rounds < 0 || o.trace < -1 || o.trace > 1 {
		fmt.Fprintln(stderr, "benchmark: -scalemul must be positive, -seconds and -rounds non-negative, -trace 0 or 1")
		return 2
	}
	selected := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
		selected = []workloadDef{w}
	}
	for _, name := range isolationEnv {
		if os.Getenv(name) != "" {
			fmt.Fprintf(stderr, "warning: $%s is set; the benchmark ignores it (every run sets its workers explicitly and uses no store, server or harness pool)\n", name)
		}
	}

	sum := &summary{
		Schema: "superpin-benchmark/1",
		Host: hostInfo{NProc: nproc, GOMAXPROCS: gomaxprocs, Go: runtime.Version(),
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: commit()},
		Seed: o.seed, Seconds: o.seconds, Rounds: o.rounds, ScaleMul: o.scaleMul, Workers: o.workers,
	}
	clk := &hostClock{}
	rec := newRecorder()
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	fmt.Fprintf(stdout, "superpin benchmark: seed %d, nproc %d, GOMAXPROCS %d, workers %d, %s, commit %s\n",
		o.seed, nproc, gomaxprocs, o.workers, runtime.Version(), sum.Host.Commit)
	fmt.Fprintln(stdout, "host time is calibrated to a nominal clock (1 ns per calibration step); raw figures are the host.* metrics")

	if o.trace != 1 {
		for _, w := range selected {
			runtime.GC()
			res, _, err := measureE2E(w, o, clk)
			if err != nil {
				return fail(err)
			}
			wo := sum.workload(w, o)
			wo.addE2E(res, w.repeatsExactly(o))
			printE2E(stdout, wo, res)
		}
	}
	if o.trace != 0 {
		var global values
		var layerTally tally
		if o.layers {
			runtime.GC()
			var err error
			if global, err = layerPass(o, clk, &layerTally); err != nil {
				return fail(err)
			}
			sum.Layers = metricsOut(perLayer, global, true, true)
			sum.LayerAttempted, sum.LayerFailed, sum.LayerErrors = layerTally.Attempted, layerTally.Failed, layerTally.Errors
			printValues(stdout, "layer pass (fixed inputs)", sum.Layers)
			printErrors(stdout, layerTally.Errors)
		}
		for _, w := range selected {
			runtime.GC()
			v, t, err := tracedPass(w, o, clk, rec)
			if err != nil {
				return fail(err)
			}
			wo := sum.workload(w, o)
			wo.PerLayer = metricsOut(perLayer, v, false, w.repeatsExactly(o))
			wo.Attempted += t.Attempted
			wo.Failed += t.Failed
			wo.Drift += t.Drift
			wo.Errors = append(wo.Errors, t.Errors...)
			printValues(stdout, "traced pass: "+w.Name, wo.PerLayer)
			printErrors(stdout, t.Errors)
		}
		if err := flushTrace(rec, o.outDir); err != nil {
			return fail(err)
		}
	}

	failed := sum.LayerFailed
	for _, wo := range sum.Workloads {
		failed += wo.Failed
	}
	if o.workload != "" && o.trace >= 0 {
		// Harness mode: the result object is the last line.
		return printResult(stdout, sum, o)
	}

	code := 0
	if o.trace == -1 && o.workload == "" {
		sum.Separation = separationChecks(sum)
		ok := printSeparation(stdout, sum.Separation)
		// The table's claims are about the full-size workloads.
		if !ok && o.scaleMul == 1 {
			code = 1
		}
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "FAILED RUNS: %d\n", failed)
		code = 1
	}
	if err := writeSummary(sum, o.jsonPath, stdout); err != nil {
		return fail(err)
	}
	return code
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// ---- summary ----

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

// metricOut is one reported metric. Q1/Q3/N describe the samples a
// timing was computed from (rounds or set-up repetitions), in the
// metric's own unit; -compare reads them to decide whether two sets
// separate.
type metricOut struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
	Exact  bool     `json:"exact,omitempty"`
	Q1     *float64 `json:"q1,omitempty"`
	Q3     *float64 `json:"q3,omitempty"`
	N      int      `json:"n,omitempty"`
}

type workloadOut struct {
	Name      string               `json:"name"`
	Why       string               `json:"why"`
	Programs  []string             `json:"programs"`
	Scale     float64              `json:"scale"`
	Rounds    int                  `json:"rounds"`
	GuestIns  uint64               `json:"guest_ins_per_round"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Drift     int                  `json:"vtime_drift_runs"`
	Errors    []string             `json:"errors,omitempty"`
	EndToEnd  map[string]metricOut `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricOut `json:"per_layer,omitempty"`
}

type summary struct {
	Schema         string               `json:"schema"`
	Host           hostInfo             `json:"host"`
	Seed           uint64               `json:"seed"`
	Seconds        float64              `json:"seconds"`
	Rounds         int                  `json:"rounds"`
	ScaleMul       float64              `json:"scalemul"`
	Workers        int                  `json:"workers"`
	Workloads      []*workloadOut       `json:"workloads"`
	Layers         map[string]metricOut `json:"layers,omitempty"`
	LayerAttempted int                  `json:"layer_attempted,omitempty"`
	LayerFailed    int                  `json:"layer_failed,omitempty"`
	LayerErrors    []string             `json:"layer_errors,omitempty"`
	Separation     []checkOut           `json:"separation,omitempty"`
	// Claim is what the run claims to have gained. Defining the
	// benchmark claims nothing.
	Claim *string `json:"claim"`
}

// workload returns the summary's entry for w, adding it on first use.
func (s *summary) workload(w workloadDef, o options) *workloadOut {
	if wo := s.find(w.Name); wo != nil {
		return wo
	}
	wo := &workloadOut{Name: w.Name, Why: w.Why, Programs: w.Programs, Scale: w.Scale * o.scaleMul}
	s.Workloads = append(s.Workloads, wo)
	return wo
}

func (s *summary) find(name string) *workloadOut {
	for _, wo := range s.Workloads {
		if wo.Name == name {
			return wo
		}
	}
	return nil
}

func ptr(v float64) *float64 { return &v }

// addE2E folds an end-to-end measurement into the workload's entry: the
// three bounded host-time metrics of BENCHMARK.json plus the two exact
// ones (simulated slowdown, failed share of runs).
func (wo *workloadOut) addE2E(r *e2eResult, exact bool) {
	wo.Rounds, wo.GuestIns = len(r.Rounds), r.GuestIns
	wo.Attempted += r.Tally.Attempted
	wo.Failed += r.Tally.Failed
	wo.Drift += r.Tally.Drift
	wo.Errors = append(wo.Errors, r.Tally.Errors...)

	rq1, rmed, rq3 := quartiles(project(r.Rounds, sample.ms))
	sq1, smed, sq3 := quartiles(project(r.Setups, sample.seconds))
	def := func(name string) metricOut {
		d, _ := metricByName(endToEnd, name)
		return metricOut{Unit: d.Unit, Better: d.Better, Bound: ptr(d.Bound)}
	}
	mips := def("guest_mips")
	mips.Value, mips.Q1, mips.Q3, mips.N = r.mips(rmed), ptr(r.mips(rq3)), ptr(r.mips(rq1)), len(r.Rounds)
	p75 := def("round_ms_p75")
	p75.Value, p75.Q1, p75.Q3, p75.N = rq3, ptr(rq1), ptr(rq3), len(r.Rounds)
	su := def("setup_s")
	su.Value, su.Q1, su.Q3, su.N = smed, ptr(sq1), ptr(sq3), len(r.Setups)
	wo.EndToEnd = map[string]metricOut{
		"guest_mips":     mips,
		"round_ms_p75":   p75,
		"setup_s":        su,
		"v_slowdown_pct": {Value: r.VSlowdownPct, Unit: "%", Better: "lower", Exact: exact},
		"fail_frac": {Value: float64(r.Tally.Failed) / float64(max(r.Tally.Attempted, 1)),
			Unit: "ratio", Better: "lower", Exact: true},
	}
}

// metricsOut renders the defs of one scope (Global or per-workload)
// from v. A metric that does not apply to the workload — jit counts on
// native, say — is reported as zero, so every name is always present.
// exact is false for a workload that ran on several host workers: its
// simulated quantities and counts are then reported, not held equal.
func metricsOut(defs []metricDef, v values, global, exact bool) map[string]metricOut {
	out := map[string]metricOut{}
	for _, d := range defs {
		if d.Global == global {
			out[d.Name] = metricOut{Value: v[d.Name], Unit: d.Unit, Better: d.Better, Exact: d.Exact && exact}
		}
	}
	return out
}

func writeSummary(sum *summary, path string, stdout io.Writer) error {
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	if path == "" {
		_, err = fmt.Fprintf(stdout, "%s\n", data)
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

// ---- harness result ----

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// printResult prints the harness's result object for the one workload
// that ran: the bounded end-to-end metrics with -trace 0, every
// per-layer metric with -trace 1.
func printResult(stdout io.Writer, sum *summary, o options) int {
	wo := sum.Workloads[0]
	res := result{
		Attempted: wo.Attempted + sum.LayerAttempted,
		Failed:    wo.Failed + sum.LayerFailed,
		Metrics:   map[string]resultMetric{},
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if o.trace == 0 {
		for _, d := range endToEnd {
			m := wo.EndToEnd[d.Name]
			res.Metrics[d.Name] = resultMetric{Value: m.Value, Unit: m.Unit}
		}
	} else {
		for _, src := range []map[string]metricOut{wo.PerLayer, sum.Layers} {
			for name, m := range src {
				res.Metrics[name] = resultMetric{Value: m.Value, Unit: m.Unit}
			}
		}
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stdout, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}

// ---- tables ----

func printE2E(w io.Writer, wo *workloadOut, r *e2eResult) {
	e := wo.EndToEnd
	raw := r.mips(median(project(r.Rounds, sample.wallMS)))
	fmt.Fprintf(w, "\n%-12s %d rounds of %d guest instructions (%v at scale %g)\n", wo.Name, wo.Rounds, wo.GuestIns, wo.Programs, wo.Scale)
	fmt.Fprintf(w, "  guest_mips      %10.3f Mins/s  higher  bound %2.0f%%   (quartiles %.3f–%.3f, raw wall %.3f)\n",
		e["guest_mips"].Value, 100**e["guest_mips"].Bound, *e["guest_mips"].Q1, *e["guest_mips"].Q3, raw)
	fmt.Fprintf(w, "  round_ms_p75    %10.3f ms      lower   bound %2.0f%%   (median %.3f, %d rounds)\n",
		e["round_ms_p75"].Value, 100**e["round_ms_p75"].Bound, median(project(r.Rounds, sample.ms)), wo.Rounds)
	kind := "exact"
	if !e["v_slowdown_pct"].Exact {
		kind = "first repetition (several host workers)"
	}
	fmt.Fprintf(w, "  v_slowdown_pct  %10.3f %%       lower   %s\n", e["v_slowdown_pct"].Value, kind)
	fmt.Fprintf(w, "  fail_frac       %10.3f         lower   exact       (%d failed of %d runs; %d drifted in virtual time)\n", e["fail_frac"].Value, r.Tally.Failed, r.Tally.Attempted, r.Tally.Drift)
	fmt.Fprintf(w, "  setup_s         %10.3f s       lower   bound %2.0f%%   (quartiles %.3f–%.3f, %d set-ups)\n",
		e["setup_s"].Value, 100**e["setup_s"].Bound, *e["setup_s"].Q1, *e["setup_s"].Q3, e["setup_s"].N)
	printErrors(w, r.Tally.Errors)
}

func printValues(w io.Writer, title string, ms map[string]metricOut) {
	fmt.Fprintf(w, "\n%s\n", title)
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		fmt.Fprintf(w, "  %-28s %14.4f %-7s %s\n", name, m.Value, m.Unit, m.Better)
	}
}

func printErrors(w io.Writer, errs []string) {
	for _, e := range errs {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}
