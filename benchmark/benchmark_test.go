package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"superpin/internal/artifact"
)

func TestQuantileMatchesPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from CPython.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{10, 20, 30}, 10, 20, 30},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // Python extrapolates two samples
		{[]float64{7}, 7, 7, 7},
		{[]float64{3.5, 1.25, 9, 4, 4, 12, 0.5}, 1.25, 4, 9},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		for i, pair := range [][2]float64{{q1, c.q1}, {q2, c.q2}, {q3, c.q3}} {
			if math.Abs(pair[0]-pair[1]) > 1e-12 {
				t.Errorf("quartile %d of %v = %v, want %v", i+1, c.xs, pair[0], pair[1])
			}
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("quantile reordered its input")
	}
}

func TestJudge(t *testing.T) {
	m := func(v, q1, q3 float64, better string, bound float64) metricOut {
		return metricOut{Value: v, Q1: ptr(q1), Q3: ptr(q3), Better: better, Bound: ptr(bound)}
	}
	exact := func(v float64) metricOut { return metricOut{Value: v, Exact: true} }
	cases := []struct {
		name string
		a, b metricOut
		want string
	}{
		{"within bound", m(100, 99, 101, "higher", 0.10), m(95, 94, 96, "higher", 0.10), verdictUnchanged},
		{"higher-is-better dropped", m(100, 99, 101, "higher", 0.10), m(85, 84, 86, "higher", 0.10), verdictWorse},
		{"higher-is-better rose", m(100, 99, 101, "higher", 0.10), m(120, 119, 121, "higher", 0.10), verdictBetter},
		{"lower-is-better rose", m(10, 9.9, 10.1, "lower", 0.10), m(12, 11.9, 12.1, "lower", 0.10), verdictWorse},
		{"lower-is-better dropped", m(10, 9.9, 10.1, "lower", 0.10), m(8, 7.9, 8.1, "lower", 0.10), verdictBetter},
		// Spread wider than the bound and overlapping ranges: the runs
		// cannot tell, whatever the medians say.
		{"noisy and overlapping", m(100, 90, 112, "higher", 0.10), m(86, 80, 95, "higher", 0.10), verdictUnresolved},
		{"noisy, medians close", m(100, 90, 112, "higher", 0.10), m(101, 92, 113, "higher", 0.10), verdictUnresolved},
		// Wide but disjoint ranges do resolve.
		{"noisy but separated", m(100, 90, 112, "higher", 0.10), m(60, 55, 70, "higher", 0.10), verdictWorse},
		{"exact equal", exact(406.1648845270941), exact(406.1648845270941), verdictEqual},
		{"exact drifted", exact(406.1648845270941), exact(406.1648845270942), verdictDiffers},
		{"unbounded layer timing", metricOut{Value: 5, Better: "lower"}, metricOut{Value: 9, Better: "lower"}, verdictInfo},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	base := func() *summary {
		return &summary{Workloads: []*workloadOut{{Name: "native", EndToEnd: map[string]metricOut{
			"guest_mips":     {Value: 40, Q1: ptr(39.0), Q3: ptr(41.0), Better: "higher", Bound: ptr(0.10)},
			"v_slowdown_pct": {Value: 100, Exact: true},
		}}}}
	}
	var out bytes.Buffer
	if code := compareSummaries(base(), base(), &out); code != 0 {
		t.Fatalf("identical summaries: exit %d\n%s", code, out.String())
	}
	worse := base()
	worse.Workloads[0].EndToEnd["guest_mips"] = metricOut{Value: 30, Q1: ptr(29.0), Q3: ptr(31.0), Better: "higher", Bound: ptr(0.10)}
	if code := compareSummaries(base(), worse, &out); code != 1 {
		t.Errorf("regressed guest_mips: exit %d, want 1", code)
	}
	drift := base()
	drift.Workloads[0].EndToEnd["v_slowdown_pct"] = metricOut{Value: 100.5, Exact: true}
	if code := compareSummaries(base(), drift, &out); code != 1 {
		t.Errorf("drifted exact metric: exit %d, want 1", code)
	}
}

// TestSameAsFirst: a simulated outcome that differs from the first
// repetition fails a run on one host worker and is counted as drift,
// not failed, on several.
func TestSameAsFirst(t *testing.T) {
	prog := &program{}
	first := runOut{VTime: 1399800, Exit: 127}
	moved := runOut{VTime: 1398600, Exit: 127}
	var tl tally
	if err := tl.sameAsFirst(prog, runCfg{Workers: 1}, first, first); err != nil || tl.Drift != 0 {
		t.Errorf("identical run: err %v, drift %d", err, tl.Drift)
	}
	if err := tl.sameAsFirst(prog, runCfg{Workers: 1}, moved, first); err == nil || tl.Drift != 0 {
		t.Errorf("one worker, virtual time moved: err %v, drift %d; want an error and no drift", err, tl.Drift)
	}
	if err := tl.sameAsFirst(prog, runCfg{Workers: 1}, runOut{VTime: first.VTime, Exit: 1}, first); err == nil {
		t.Error("one worker, exit code moved: no error")
	}
	if err := tl.sameAsFirst(prog, runCfg{Workers: 2}, moved, first); err != nil || tl.Drift != 1 {
		t.Errorf("two workers, virtual time moved: err %v, drift %d; want none and 1", err, tl.Drift)
	}
	if w, _ := workloadByName("sp-parallel"); w.repeatsExactly(options{workers: 2}) || !w.repeatsExactly(options{workers: 1}) {
		t.Error("sp-parallel must report exact metrics on one worker only")
	}
	if w, _ := workloadByName("sp-gcc"); !w.repeatsExactly(options{workers: 2}) {
		t.Error("sp-gcc runs on one worker whatever -workers says")
	}
}

// manifest is BENCHMARK.json, the harness's description of this program.
type manifest struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesMatchBenchmarkJSON holds the three places that list the
// vocabulary — the Go tables, BENCHMARK.json and the README — together.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	m := readManifest(t)
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		if !bytes.Contains(readme, []byte("`"+name+"`")) {
			t.Errorf("README.md does not mention %s `%s`", kind, name)
		}
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check("workload", w.Name)
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		check("end-to-end metric", d.Name)
		e := m.EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, e, d)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		check("per-layer metric", d.Name)
		e := m.PerLayer[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, e, d)
		}
	}
	if !bytes.Contains(readme, []byte("`fail_frac`")) {
		t.Error("README.md does not mention `fail_frac`")
	}
}

// runBenchmark runs the program in-process with its output under a
// temporary directory.
func runBenchmark(t *testing.T, args ...string) (code int, stdout, stderr string, dir string) {
	t.Helper()
	dir = t.TempDir()
	var out, errb bytes.Buffer
	code = run(append([]string{"-out", dir}, args...), &out, &errb)
	return code, out.String(), errb.String(), dir
}

// TestSmokeAllWorkloads runs all seven workloads and every pass at a
// twenty-fifth of their size: every run must verify against its native
// reference, and the names emitted must be the vocabulary.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0)) // run sets it
	jsonPath := filepath.Join(t.TempDir(), "summary.json")
	code, stdout, stderr, dir := runBenchmark(t, "-rounds", "1", "-scalemul", "0.04", "-json", jsonPath)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	sum, err := loadSummary(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(jsonPath)
	if !strings.HasSuffix(strings.TrimSpace(string(data)), "\"claim\": null\n}") {
		t.Error(`summary does not end with "claim": null`)
	}

	if len(sum.Workloads) != len(workloads) {
		t.Fatalf("summary has %d workloads, want %d", len(sum.Workloads), len(workloads))
	}
	wantLayer, wantGlobal := map[string]bool{}, map[string]bool{}
	for _, d := range perLayer {
		if d.Global {
			wantGlobal[d.Name] = true
		} else {
			wantLayer[d.Name] = true
		}
	}
	sameNames := func(where string, got map[string]metricOut, want map[string]bool) {
		for name := range got {
			if !want[name] {
				t.Errorf("%s: unexpected metric %q", where, name)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%s: metric %q missing", where, name)
			}
		}
	}
	for i, wo := range sum.Workloads {
		if wo.Name != workloads[i].Name {
			t.Errorf("workload %d is %q, want %q", i, wo.Name, workloads[i].Name)
		}
		if wo.Failed != 0 || wo.Attempted == 0 || wo.EndToEnd["fail_frac"].Value != 0 {
			t.Errorf("%s: %d of %d runs failed: %v", wo.Name, wo.Failed, wo.Attempted, wo.Errors)
		}
		sameNames(wo.Name+" end to end", wo.EndToEnd, map[string]bool{
			"guest_mips": true, "round_ms_p75": true, "v_slowdown_pct": true, "fail_frac": true, "setup_s": true})
		sameNames(wo.Name+" per layer", wo.PerLayer, wantLayer)
		for _, name := range []string{"guest_mips", "round_ms_p75", "setup_s"} {
			if v := wo.EndToEnd[name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want positive", wo.Name, name, v)
			}
		}
		if c := wo.PerLayer["trace.span_coverage_pct"].Value; c < 95 {
			t.Errorf("%s: spans cover %.2f%% of the traced round, want >= 95", wo.Name, c)
		}
	}
	sameNames("layer pass", sum.Layers, wantGlobal)
	if sum.LayerFailed != 0 {
		t.Errorf("layer pass: %d checks failed: %v", sum.LayerFailed, sum.LayerErrors)
	}
	if v := sum.find("native").EndToEnd["v_slowdown_pct"].Value; v != 100 {
		t.Errorf("native v_slowdown_pct = %v, want exactly 100", v)
	}
	if len(sum.Separation) == 0 {
		t.Error("no separation check in a full run")
	}
	if sum.Claim != nil {
		t.Errorf("claim = %q, want none", *sum.Claim)
	}

	var spans []span
	data, err = os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, sp := range spans {
		names[sp.Name] = true
		if sp.EndNS < sp.StartNS || (sp.Name != "round" && (sp.Parent == 0 || sp.Run == 0)) {
			t.Fatalf("malformed span %+v", sp)
		}
	}
	for _, name := range []string{"round", "build", "keyof", "predecode", "analyze", "run", "verify"} {
		if !names[name] {
			t.Errorf("trace.json has no %q span", name)
		}
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "cache-*")); len(entries) != 0 {
		t.Errorf("scratch disk cache left behind: %v", entries)
	}
}

// TestHarnessResult checks the one-object last line the harness reads,
// for both values of -trace.
func TestHarnessResult(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the layer pass")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	m := readManifest(t)
	// native keeps the traced pass cheap: at this scale every Pin run
	// is mostly load-time analysis.
	for trace, workload := range []string{"coldstart", "native"} {
		trace := strconv.Itoa(trace)
		code, stdout, stderr, _ := runBenchmark(t, "--workload", workload, "--seed", "3", "--seconds", "0",
			"--trace", trace, "-rounds", "2", "-scalemul", "0.04")
		if code != 0 {
			t.Fatalf("-trace %s: exit %d\n%s", trace, code, stderr)
		}
		lines := strings.Split(strings.TrimSpace(stdout), "\n")
		var top map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &top); err != nil {
			t.Fatalf("-trace %s: last line is not JSON: %v", trace, err)
		}
		if len(top) != 4 {
			t.Errorf("-trace %s: result has keys %v, want exactly correct, attempted, failed, metrics", trace, top)
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("-trace %s: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		want := map[string]string{}
		if trace == "0" {
			for _, e := range m.EndToEnd {
				want[e.Name] = e.Unit
			}
		} else {
			for _, e := range m.PerLayer {
				want[e.Name] = e.Unit
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("-trace %s: %d metrics, BENCHMARK.json lists %d", trace, len(res.Metrics), len(want))
		}
		for name, unit := range want {
			got, ok := res.Metrics[name]
			if !ok {
				t.Errorf("-trace %s: metric %q missing", trace, name)
			} else if got.Unit != unit {
				t.Errorf("-trace %s: %s has unit %q, want %q", trace, name, got.Unit, unit)
			}
		}
	}
}

func TestSeedReseedsImages(t *testing.T) {
	key := func(seed uint64) artifact.Key {
		spec, err := seededSpec("gzip", 0.01, seed)
		if err != nil {
			t.Fatal(err)
		}
		img, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		return artifact.KeyOf(img)
	}
	if key(1) == key(2) {
		t.Error("seeds 1 and 2 generate the same image")
	}
	if key(1) != key(1) {
		t.Error("seed 1 is not reproducible")
	}
	if key(0) == key(1) {
		t.Error("seed 1 generates the catalog image")
	}
	if spec, _ := seededSpec("gzip", 0.01, 0); spec.Name != "gzip" {
		t.Errorf("seed 0 renamed the catalog program to %q", spec.Name)
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "100000"},
		{"-workload", "no-such-workload"},
		{"-trace", "2"},
		{"-scalemul", "0"},
		{"-compare", "only-one.json"},
		{"stray"},
	} {
		if code, _, stderr, _ := runBenchmark(t, args...); code != 2 || stderr == "" {
			t.Errorf("%v: exit %d, stderr %q; want a usage error", args, code, stderr)
		}
	}
}

func TestEnvironmentWarning(t *testing.T) {
	t.Setenv("SUPERPIN_WORKERS", "7")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	code, _, stderr, _ := runBenchmark(t, "-workload", "native", "-trace", "0", "-rounds", "1", "-scalemul", "0.01")
	if code != 0 || !strings.Contains(stderr, "$SUPERPIN_WORKERS is set") {
		t.Errorf("exit %d, stderr %q; want a warning about $SUPERPIN_WORKERS", code, stderr)
	}
}
