package main

import (
	"fmt"
	"os"
	"time"

	"superpin/internal/artifact"
	"superpin/internal/asm"
	"superpin/internal/core"
	"superpin/internal/cpu"
	"superpin/internal/isa"
	"superpin/internal/jit"
	"superpin/internal/kernel"
	"superpin/internal/mem"
	"superpin/internal/pin"
	"superpin/internal/sa"
	"superpin/internal/workload"
)

const (
	// layerRounds is how many paired rounds each ablation arm runs.
	layerRounds = 5
	// interpIns is the guest instructions each cpu executor retires.
	interpIns = 1_000_000
	// microReps is how often each direct timed call is repeated; the
	// median is reported.
	microReps = 5
)

// layerPass measures every Global per-layer metric: direct timed calls
// into each layer's public functions, and ablations through the public
// pin.CostModel switches. Inputs are its own (fixed programs of the
// workload definitions), so its numbers do not depend on which workload
// the run was asked for. Failures of verified runs land in t.
func layerPass(o options, clk *hostClock, t *tally) (values, error) {
	v := values{}
	steps := []func(options, *hostClock, *tally, values) error{
		layerCPU, layerMem, layerJIT, layerSA, layerPin, layerKernel, layerCore, layerArtifact,
	}
	for _, step := range steps {
		if err := step(o, clk, t, v); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// buildOne generates one catalog program for the layer pass.
func buildOne(name string, scale float64, seed uint64) (*program, error) {
	spec, err := seededSpec(name, scale, seed)
	if err != nil {
		return nil, err
	}
	img, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return &program{spec: spec, img: img}, nil
}

// loadImage returns a fresh memory image of p with the registers a
// kernel would start it with.
func loadImage(p *program) (*mem.Memory, cpu.Regs) {
	m := mem.New()
	p.img.LoadInto(m)
	regs := cpu.Regs{PC: p.img.Entry}
	regs.R[isa.RegSP] = core.DefaultStackTop
	return m, regs
}

// perOp times iters calls of f, microReps times, and returns the median
// calibrated ns per call.
func perOp(clk *hostClock, iters uint32, f func(i uint32)) float64 {
	var ns []float64
	for rep := 0; rep < microReps; rep++ {
		s := clk.measureNow(func() {
			for i := uint32(0); i < iters; i++ {
				f(i)
			}
		})
		ns = append(ns, float64(s.Cal)/float64(iters))
	}
	return median(ns)
}

// ---- cpu ----

// executor retires up to max instructions at r.PC and returns how many
// completed.
type executor func(r *cpu.Regs, m *mem.Memory, max int) (int, cpu.Event, error)

// interp drives a guest image without a kernel: system calls are
// skipped (their results only feed the accumulator) and the run ends
// after exactly interpIns instructions.
func interp(p *program, exec executor) (cpu.Regs, int, error) {
	m, r := loadImage(p)
	n := 0
	for n < interpIns {
		k, ev, err := exec(&r, m, interpIns-n)
		if err != nil {
			return r, n, fmt.Errorf("%s: interpreter fault after %d instructions: %w", p.spec.Name, n, err)
		}
		n += k
		if ev == cpu.EvSyscall && r.R[isa.RegSys] == kernel.SysExit {
			return r, n, fmt.Errorf("%s: exited after %d instructions, want %d", p.spec.Name, n, interpIns)
		}
	}
	return r, n, nil
}

func layerCPU(o options, clk *hostClock, t *tally, v values) error {
	// mgrid at full length: long straight-line kernels, never exits
	// within interpIns.
	p, err := buildOne("mgrid", 1, o.seed)
	if err != nil {
		return err
	}
	an := sa.Analyze(p.img)
	if err := an.Err(); err != nil {
		return err
	}
	// block runs exec over the analysis's shared predecoded run at r.PC,
	// the way the engine's superblock path does.
	block := func(exec func(r *cpu.Regs, m *mem.Memory, run []cpu.BlockIns, max int) (int, cpu.Event, error)) executor {
		return func(r *cpu.Regs, m *mem.Memory, max int) (int, cpu.Event, error) {
			run, ok := an.Predecoded(r.PC)
			if !ok {
				return 0, cpu.EvNone, fmt.Errorf("pc %#x outside the analysed image", r.PC)
			}
			return exec(r, m, run, max)
		}
	}
	arms := []struct {
		metric string
		exec   executor
	}{
		{"cpu.step_mips", func(r *cpu.Regs, m *mem.Memory, _ int) (int, cpu.Event, error) {
			ev, _, err := cpu.Step(r, m)
			return 1, ev, err
		}},
		{"cpu.execblock_mips", block(func(r *cpu.Regs, m *mem.Memory, run []cpu.BlockIns, max int) (int, cpu.Event, error) {
			return cpu.ExecBlock(r, m, run, max, m.CopyEvents)
		})},
		{"cpu.execblockcached_mips", block(func(r *cpu.Regs, m *mem.Memory, run []cpu.BlockIns, max int) (int, cpu.Event, error) {
			return cpu.ExecBlockCached(r, m, run, max, m.CopyEvents, ^uint32(0))
		})},
	}
	var ref cpu.Regs
	for i, arm := range arms {
		var mips []float64
		for rep := 0; rep < microReps; rep++ {
			var regs cpu.Regs
			var n int
			var err error
			s := clk.measureNow(func() { regs, n, err = interp(p, arm.exec) })
			t.Attempted++
			switch {
			case err != nil:
				t.fail(err)
			case i == 0:
				ref = regs
			case regs != ref:
				t.fail(fmt.Errorf("%s: register state differs from cpu.Step's", arm.metric))
			}
			mips = append(mips, float64(n)/1e6/s.seconds())
		}
		v[arm.metric] = median(mips)
	}

	for _, w := range []struct {
		metric string
		mask   uint32
	}{{"cpu.savemasked_ns_w9", 0x1ff << 10}, {"cpu.savemasked_ns_w32", ^uint32(0)}} {
		var r cpu.Regs
		var buf [isa.NumRegs]uint32
		v[w.metric] = perOp(clk, 1_000_000, func(i uint32) {
			r.R[10] = i
			cpu.SaveMasked(&r, w.mask, &buf)
			cpu.RestoreMasked(&r, w.mask, &buf)
		})
		calSink += uint64(r.R[10])
	}
	return nil
}

// ---- mem ----

func layerMem(o options, clk *hostClock, t *tally, v values) error {
	p, err := buildOne("mcf", 0.25*o.scaleMul, o.seed)
	if err != nil {
		return err
	}
	m, _ := loadImage(p)
	// Materialise the working set the way a run would.
	dataBytes := uint32(p.spec.DataPages) * mem.PageSize
	for a := uint32(0); a < dataBytes; a += mem.PageSize {
		if f := m.StoreWord(workload.DataBase+a, a); f != nil {
			return f
		}
	}

	const iters = 1_000_000
	var sum uint32
	// One page each, so every access after the first is a TLB hit.
	v["mem.loadword_ns"] = perOp(clk, iters, func(i uint32) {
		w, _ := m.LoadWord(workload.DataBase + (i&1023)*4)
		sum += w
	})
	v["mem.storeword_ns"] = perOp(clk, iters, func(i uint32) { m.StoreWord(workload.DataBase+(i&1023)*4, i) })
	entry := p.img.Entry &^ (mem.PageSize - 1)
	v["mem.fetchinst_ns"] = perOp(clk, iters, func(i uint32) {
		in, _ := m.FetchInst(entry + (i&63)*4)
		sum += uint32(in.Op)
	})
	calSink += uint64(sum)

	// 200 live children at once: fork cost with the refcounts already
	// shared, then the first store to each of 16 shared pages (16 page
	// copies per child), then release.
	const forks, cowPages = 200, 16
	children := make([]*mem.Memory, forks)
	forkT := clk.measureNow(func() {
		for i := range children {
			children[i] = m.Fork()
		}
	}).Cal
	cowT := clk.measureNow(func() {
		for _, child := range children {
			for pg := uint32(0); pg < cowPages; pg++ {
				child.StoreWord(workload.DataBase+pg*mem.PageSize, pg)
			}
		}
	}).Cal
	relT := clk.measureNow(func() {
		for _, child := range children {
			child.Release()
		}
	}).Cal
	v["mem.fork_us"] = us(forkT) / forks
	v["mem.cow_store_ns"] = float64(cowT) / (forks * cowPages)
	v["mem.release_us"] = us(relT) / forks

	g, err := buildOne("gcc", 0.25*o.scaleMul, o.seed)
	if err != nil {
		return err
	}
	spans := make([]mem.Span, len(g.img.Segments))
	for i, seg := range g.img.Segments {
		spans[i] = mem.Span{Addr: seg.Addr, Data: seg.Data}
	}
	var pre []float64
	for i := 0; i < 9; i++ {
		pre = append(pre, us(clk.measureNow(func() { mem.BuildPredecodeSet(spans) }).Cal))
	}
	v["mem.predecode_build_us"] = median(pre)
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ---- jit ----

// blockLeaders returns every recovered basic-block leader of the image.
func blockLeaders(img *asm.Program, an *sa.Analysis) []uint32 {
	var leaders []uint32
	for _, seg := range img.Segments {
		for off := uint32(0); off+4 <= uint32(len(seg.Data)); off += 4 {
			addr := seg.Addr + off
			if l, ok := an.BlockLeader(addr); ok && l == addr {
				leaders = append(leaders, addr)
			}
		}
	}
	return leaders
}

func layerJIT(o options, clk *hostClock, t *tally, v values) error {
	p, err := buildOne("gcc", 0.25*o.scaleMul, o.seed)
	if err != nil {
		return err
	}
	an := sa.Analyze(p.img)
	if err := an.Err(); err != nil {
		return err
	}
	leaders := blockLeaders(p.img, an)
	if len(leaders) == 0 {
		return fmt.Errorf("%s: no block leaders recovered", p.spec.Name)
	}
	m, _ := loadImage(p)

	const reps = 9
	traces := make([]*jit.Trace, len(leaders))
	compiled := make([]*jit.CompiledTrace, len(leaders))
	var buildNS, compileNS []float64
	ins := 0
	for r := 0; r < reps; r++ {
		var err error
		s := clk.measureNow(func() {
			for i, pc := range leaders {
				if traces[i], err = jit.BuildTrace(m, pc); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		buildNS = append(buildNS, float64(s.Cal)/float64(len(leaders)))
		s = clk.measureNow(func() {
			for i, tr := range traces {
				compiled[i] = jit.Compile(tr)
			}
		})
		compileNS = append(compileNS, float64(s.Cal)/float64(len(leaders)))
	}
	for _, tr := range traces {
		ins += tr.NumIns
	}
	v["jit.buildtrace_ns"] = median(buildNS)
	v["jit.compile_ns"] = median(compileNS)
	v["jit.compile_ns_per_ins"] = median(compileNS) * float64(len(leaders)) / float64(ins)

	cc := jit.NewCodeCache(0)
	tc := jit.NewTraceCache()
	for i, ct := range compiled {
		cc.Insert(ct)
		tc.Insert(traces[i])
		// Link every trace to its successor in leader order.
		next := compiled[(i+1)%len(compiled)]
		ct.SetLink(next.Addr, next, cc.Epoch())
	}
	const lookups = 500_000
	hits := 0
	n := uint32(len(leaders))
	v["jit.codecache_lookup_ns"] = perOp(clk, lookups, func(i uint32) {
		if cc.Lookup(leaders[i%n]) != nil {
			hits++
		}
	})
	v["jit.link_ns"] = perOp(clk, lookups, func(i uint32) {
		next := compiled[(i+1)%n]
		if got, _ := compiled[i%n].Link(next.Addr, cc.Epoch()); got == next {
			hits++
		}
	})
	v["jit.tracecache_lookup_ns"] = perOp(clk, lookups, func(i uint32) {
		if _, ok := tc.Lookup(leaders[i%n]); ok {
			hits++
		}
	})
	t.Attempted++
	if hits != 3*microReps*lookups {
		t.fail(fmt.Errorf("jit: %d of %d cache lookups hit", hits, 3*microReps*lookups))
	}
	return nil
}

// ---- sa ----

func layerSA(o options, clk *hostClock, t *tally, v values) error {
	w, _ := workloadByName("coldstart")
	progs, err := buildPrograms(w, o.seed, o.scaleMul)
	if err != nil {
		return err
	}
	const reps = 5
	var full, intra, enc, dec []float64
	blocks := 0
	for r := 0; r < reps; r++ {
		ans := make([]*sa.Analysis, len(progs))
		blobs := make([][]byte, len(progs))
		full = append(full, clk.measureNow(func() {
			for i, p := range progs {
				ans[i] = sa.Analyze(p.img)
			}
		}).ms())
		intra = append(intra, clk.measureNow(func() {
			for _, p := range progs {
				sa.AnalyzeIntra(p.img)
			}
		}).ms())
		enc = append(enc, clk.measureNow(func() {
			for i, an := range ans {
				blobs[i] = an.Encode()
			}
		}).ms())
		var err error
		dec = append(dec, clk.measureNow(func() {
			for i, p := range progs {
				if _, err = sa.Decode(blobs[i], p.img); err != nil {
					return
				}
			}
		}).ms())
		t.Attempted++
		if err != nil {
			t.fail(fmt.Errorf("sa: decode of a fresh encoding: %w", err))
		}
		blocks = 0
		for _, an := range ans {
			blocks += an.NumBlocks()
		}
	}
	v["sa.analyze_ms"] = median(full)
	v["sa.analyze_intra_ms"] = median(intra)
	v["sa.encode_ms"] = median(enc)
	v["sa.decode_ms"] = median(dec)
	v["sa.blocks"] = float64(blocks)
	return nil
}

// ---- paired rounds ----

// arm is one configuration of a paired comparison: the same programs,
// another run configuration.
type arm struct {
	name   string
	progs  []*program
	rc     runCfg
	rounds []sample // one per round
	outs   []runOut // last round's results
}

// pairedRounds runs the arms round-robin, layerRounds times, so every
// arm sees the same host conditions, and calibrates every round once
// all have run.
func pairedRounds(arms []*arm, o options, clk *hostClock, t *tally) {
	for r := 0; r < o.repeats(layerRounds); r++ {
		roundEach(arms, clk, t)
	}
	settleArms(arms, clk)
}

// roundEach runs one round of every arm, in order.
func roundEach(arms []*arm, clk *hostClock, t *tally) {
	for _, a := range arms {
		a.outs = make([]runOut, len(a.progs))
		a.rounds = append(a.rounds, runRound(a.name, a.progs, a.rc, nil, clk, t, a.outs))
	}
}

func settleArms(arms []*arm, clk *hostClock) {
	for _, a := range arms {
		clk.settleAll(a.rounds)
	}
}

// median is the arm's median calibrated round time in ms.
func (a *arm) median() float64 { return median(project(a.rounds, sample.ms)) }

// referenced builds a workload's programs and takes their references.
func referenced(name string, o options) ([]*program, uint64, error) {
	w, _ := workloadByName(name)
	progs, err := buildPrograms(w, o.seed, o.scaleMul)
	if err != nil {
		return nil, 0, err
	}
	var ins uint64
	for _, p := range progs {
		if err := runReference(p); err != nil {
			return nil, 0, err
		}
		ins += p.ref.Ins
	}
	return progs, ins, nil
}

// ---- pin ----

func layerPin(o options, clk *hostClock, t *tally, v values) error {
	// pin-icount1's inputs carry every serial-Pin comparison: the same
	// three programs as pin-icount2 and pin-ifcall at the shorter scale.
	progs, ins, err := referenced("pin-icount1", o)
	if err != nil {
		return err
	}
	mk := func(name string, tool toolKind, flip func(*pin.CostModel)) *arm {
		rc := runCfg{Mode: modePin, Tool: tool, Workers: 1, Cost: pin.DefaultCost()}
		if flip != nil {
			flip(&rc.Cost)
		}
		return &arm{name: name, progs: progs, rc: rc}
	}
	null := mk("null", toolNull, nil)
	ic1 := mk("icount1", toolIcount1, nil)
	ic2 := mk("icount2", toolIcount2, nil)
	ic2NoFast := mk("icount2 NoFastPath", toolIcount2, func(c *pin.CostModel) { c.NoFastPath = true })
	ic2NoHot := mk("icount2 NoHotTier", toolIcount2, func(c *pin.CostModel) { c.NoHotTier = true })
	ifc := mk("ifcall", toolIfcall, nil)
	ifcNoSA := mk("ifcall NoSA", toolIfcall, func(c *pin.CostModel) { c.NoSA = true })
	ifcIntra := mk("ifcall SAIntra", toolIfcall, func(c *pin.CostModel) { c.SAIntra = true })
	ifcDecl := mk("ifcall declared", toolIfcallDeclared, nil)
	pairedRounds([]*arm{null, ic1, ic2, ic2NoFast, ic2NoHot, ifc, ifcNoSA, ifcIntra, ifcDecl}, o, clk, t)

	calls := func(a *arm, pick func(pin.Stats) uint64) float64 {
		var n uint64
		for _, out := range a.outs {
			if out.Pin != nil {
				n += pick(out.Pin.Engine)
			}
		}
		return float64(n)
	}
	v["pin.null_mips"] = float64(ins) / 1e3 / null.median()
	v["pin.ns_per_analysis_call"] = ratio((ic1.median()-null.median())*1e6, calls(ic1, func(s pin.Stats) uint64 { return s.AnalysisCalls }))
	v["pin.ns_per_ifcall"] = ratio((ifc.median()-null.median())*1e6, calls(ifc, func(s pin.Stats) uint64 { return s.IfCalls }))
	v["pin.gain_fastpath"] = ic2NoFast.median() / ic2.median()
	v["pin.gain_hottier"] = ic2NoHot.median() / ic2.median()
	v["pin.gain_sa"] = ifcNoSA.median() / ifc.median()
	v["pin.gain_sa_ip"] = ifcIntra.median() / ifc.median()
	v["pin.gain_fold"] = ifc.median() / ifcDecl.median()
	return nil
}

// ---- kernel ----

func layerKernel(o options, clk *hostClock, t *tally, v values) error {
	b := asm.NewBuilder(0x0001_0000)
	b.Li(isa.RegSys, kernel.SysExit)
	b.Li(isa.RegArg0, 0)
	b.Syscall()
	exitOnly, err := b.Finish()
	if err != nil {
		return err
	}
	const boots = 300
	var bootUS []float64
	for i := 0; i < boots; i += 50 {
		var err error
		s := clk.measureNow(func() {
			for j := 0; j < 50; j++ {
				k := kernel.New(kernelConfig(1))
				m := mem.New()
				exitOnly.LoadInto(m)
				k.Spawn("boot", m, cpu.Regs{PC: exitOnly.Entry}, kernel.NativeRunner{})
				if err = k.Run(); err != nil {
					return
				}
			}
		})
		t.Attempted++
		if err != nil {
			t.fail(fmt.Errorf("kernel boot: %w", err))
		}
		bootUS = append(bootUS, us(s.Cal)/50)
	}
	v["kernel.boot_us"] = median(bootUS)

	progs, _, err := referenced("sp-parallel", o)
	if err != nil {
		return err
	}
	mk := func(name string, tool toolKind, workers int) *arm {
		return &arm{name: name, progs: progs, rc: runCfg{Mode: modeSP, Tool: tool, Workers: workers, Cost: pin.DefaultCost()}}
	}
	s1, sN := mk("icount2 w=1", toolIcount2, 1), mk("icount2 w=N", toolIcount2, o.workers)
	p1, pN := mk("icount1 w=1", toolIcount1, 1), mk("icount1 w=N", toolIcount1, o.workers)
	pairedRounds([]*arm{s1, sN, p1, pN}, o, clk, t)
	v["kernel.pool_speedup"] = s1.median() / sN.median()
	v["kernel.pool_speedup_icount1"] = p1.median() / pN.median()
	return nil
}

// ---- core ----

func layerCore(o options, clk *hostClock, t *tally, v values) error {
	progs, _, err := referenced("sp-gcc", o)
	if err != nil {
		return err
	}
	mk := func(name string, mode execMode, tool toolKind) *arm {
		return &arm{name: name, progs: progs, rc: runCfg{Mode: mode, Tool: tool, Workers: 1, Cost: pin.DefaultCost()}}
	}
	sp, nat, serial := mk("superpin", modeSP, toolIcount1), mk("native", modeNative, toolNone), mk("pin", modePin, toolIcount1)
	pairedRounds([]*arm{sp, nat, serial}, o, clk, t)
	slices := 0
	for _, out := range sp.outs {
		if out.SP != nil {
			slices += out.SP.Stats.Forks
		}
	}
	// What SuperPin costs the host beyond running the program once
	// natively (the master) and once instrumented (the slices' sum).
	v["core.host_us_per_slice"] = ratio((sp.median()-nat.median()-serial.median())*1e3, float64(slices))
	return nil
}

// ---- artifact ----

func layerArtifact(o options, clk *hostClock, t *tally, v values) error {
	progs, _, err := referenced("coldstart", o)
	if err != nil {
		return err
	}
	const hashes = 20
	s := clk.measureNow(func() {
		for i := 0; i < hashes; i++ {
			for _, p := range progs {
				artifact.KeyOf(p.img)
			}
		}
	})
	v["artifact.keyof_us"] = us(s.Cal) / float64(hashes*len(progs))

	// A disk layer populated by one pass, then read through a fresh
	// store each round so every artifact is hydrated from its file.
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.outDir, "cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	warm := artifact.NewStore()
	populate, err := artifact.NewDiskStore(dir)
	if err != nil {
		return err
	}
	rc := runCfg{Mode: modePin, Tool: toolIcount2, Workers: 1, Cost: pin.DefaultCost()}
	for _, store := range []*artifact.Store{warm, populate} {
		rcs := rc
		rcs.Store = store
		for _, p := range progs {
			t.Attempted++
			if _, err := execRun(p, rcs); err != nil {
				t.fail(err)
			}
		}
	}
	before := warm.Stats()
	cold := &arm{name: "no store", progs: progs, rc: rc}
	warmArm := &arm{name: "warm store", progs: progs, rc: rc}
	warmArm.rc.Store = warm
	diskArm := &arm{name: "disk store", progs: progs, rc: rc}
	arms := []*arm{cold, warmArm, diskArm}
	for r := 0; r < o.repeats(layerRounds); r++ {
		if diskArm.rc.Store, err = artifact.NewDiskStore(dir); err != nil {
			return err
		}
		roundEach(arms, clk, t)
	}
	settleArms(arms, clk)
	after := warm.Stats()
	v["artifact.gain_warm"] = cold.median() / warmArm.median()
	v["artifact.gain_disk"] = cold.median() / diskArm.median()
	v["artifact.sa_computes"] = float64(after.SAComputes)
	v["artifact.predecode_hits"] = float64(after.PredecodeHits - before.PredecodeHits)
	// Load-time analysis as a share of a coldstart round.
	v["sa.load_share_pct"] = 100 * v["sa.analyze_ms"] / cold.median()
	return nil
}
