package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"superpin/internal/artifact"
	"superpin/internal/asm"
	"superpin/internal/isa"
	"superpin/internal/kernel"
	"superpin/internal/obs"
	"superpin/internal/pin"
)

// smcProg builds a self-modifying guest: before entering its hot loop it
// overwrites the loop body's increment instruction (addi r20, r20, 1 in
// the image) with addi r20, r20, step loaded from the data section. The
// exit code therefore proves which instruction actually executed — a
// run that decoded the stale image (e.g. through an adopted predecode
// view that survived the store) computes a visibly different sum.
func smcProg(t *testing.T, iters, step int) *asm.Program {
	t.Helper()
	patched, err := isa.Encode(isa.Inst{Op: isa.OpADDI, Rd: 20, Rs1: 20, Imm: int32(step)})
	if err != nil {
		t.Fatal(err)
	}
	src := fmt.Sprintf(`
	.entry main
main:
	la r10, patch
	la r11, newinst
	lw r12, (r11)
	sw r12, (r10)
	li r20, 0
	li r21, %d
	li r22, 0
	la ra, loop
	ret
loop:
patch:
	addi r20, r20, 1
	addi r22, r22, 1
	blt r22, r21, loop
	li r1, 1
	andi r2, r20, 255
	syscall
	.org 0x8000
newinst:
	.word 0x%08x
`, iters, patched)
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkPinResult asserts virtual-outcome identity between two serial
// Pin runs (stats carry host-side cache/warm counters that legitimately
// differ between cold and warm runs, so only the virtual fields and the
// guest-visible engine work are compared).
func checkPinResult(t *testing.T, label string, got, want *PinResult) {
	t.Helper()
	if got.ExitCode != want.ExitCode || got.Ins != want.Ins || got.Time != want.Time {
		t.Fatalf("%s: exit/ins/time = %d/%d/%d, want %d/%d/%d",
			label, got.ExitCode, got.Ins, got.Time, want.ExitCode, want.Ins, want.Time)
	}
	if string(got.Stdout) != string(want.Stdout) {
		t.Fatalf("%s: stdout %q, want %q", label, got.Stdout, want.Stdout)
	}
	if got.Engine.ExecIns != want.Engine.ExecIns || got.Engine.Dispatches != want.Engine.Dispatches {
		t.Fatalf("%s: execIns/dispatches = %d/%d, want %d/%d",
			label, got.Engine.ExecIns, got.Engine.Dispatches, want.Engine.ExecIns, want.Engine.Dispatches)
	}
}

// TestArtifactSMCInvalidation: a guest that patches its own code must
// compute the patched result on every path — cold, warm (adopted
// predecode from a populated in-process store), and disk-warm (fresh
// store hydrated from a cache directory). The adopted predecode view
// holds the stale image decode for the patched word; the guest store
// must invalidate it, never the other way around.
func TestArtifactSMCInvalidation(t *testing.T) {
	const iters, step = 100, 5
	cfg := testKernelCfg()
	cost := pin.DefaultCost()

	// The patched loop adds `step` per iteration; stale decode adds 1.
	wantExit := uint32(iters*step) & 255

	factory, _ := newIcount()
	cold, err := RunPin(cfg, smcProg(t, iters, step), factory, cost)
	if err != nil {
		t.Fatal(err)
	}
	if cold.ExitCode != wantExit {
		t.Fatalf("cold exit = %d, want %d (patched instruction did not execute)", cold.ExitCode, wantExit)
	}

	// Warm: second run on the same store adopts the first run's
	// predecode set, whose cached decode of the patch site is stale the
	// moment the guest stores over it.
	store := artifact.NewStore()
	for i, label := range []string{"populate", "warm"} {
		f, _ := newIcount()
		res, err := RunPinCached(cfg, smcProg(t, iters, step), f, cost, 0, store)
		if err != nil {
			t.Fatal(err)
		}
		checkPinResult(t, label, res, cold)
		if st := store.Stats(); i == 1 && st.PredecodeHits == 0 {
			t.Fatalf("warm run missed the store: %+v", st)
		}
	}

	// Disk-warm: hydrate a fresh store from the directory the first
	// store persisted into — nothing recomputed, same invalidation.
	dir := t.TempDir()
	diskA, err := artifact.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fA, _ := newIcount()
	if _, err := RunPinCached(cfg, smcProg(t, iters, step), fA, cost, 0, diskA); err != nil {
		t.Fatal(err)
	}
	diskB, err := artifact.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fB, _ := newIcount()
	res, err := RunPinCached(cfg, smcProg(t, iters, step), fB, cost, 0, diskB)
	if err != nil {
		t.Fatal(err)
	}
	checkPinResult(t, "disk-warm", res, cold)
	if st := diskB.Stats(); st.DiskHits == 0 {
		t.Fatalf("disk-warm run read nothing from disk: %+v", st)
	}
}

// TestArtifactSuperPinSMC: the same self-modifying guest under SuperPin
// with a shared artifact store — the master adopts the store's predecode,
// its slices inherit it through the fork, and the merged result must
// still match native.
func TestArtifactSuperPinSMC(t *testing.T) {
	const iters, step = 2000, 3
	cfg := testKernelCfg()
	prog := smcProg(t, iters, step)

	native, err := RunNative(cfg, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantExit := uint32(iters*step) & 255
	if native.ExitCode != wantExit {
		t.Fatalf("native exit = %d, want %d", native.ExitCode, wantExit)
	}

	store := artifact.NewStore()
	for _, label := range []string{"populate", "warm"} {
		opts := smallOpts(5)
		opts.Artifacts = store
		factory, count := newIcount()
		res, err := Run(cfg, smcProg(t, iters, step), factory, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.ExitCode != native.ExitCode || count() != native.Ins {
			t.Fatalf("%s: exit/icount = %d/%d, want %d/%d",
				label, res.ExitCode, count(), native.ExitCode, native.Ins)
		}
	}
	if st := store.Stats(); st.PredecodeComputes != 1 {
		t.Fatalf("store recomputed the predecode set across runs: %+v", st)
	}
}

// TestSuperPinSMCAdoption: the self-modifying guest under SuperPin with
// short slices, counted by an inline-add icount whose traces are
// shareable through the run's trace cache. The merged count and exit
// code must match native. The patched loop is the guest's only hot
// trace, so every timer-bounded slice has its boundary inside it and
// builds it privately; the exit-bounded last slice has no boundary PC
// and adopts the patched loop an earlier slice built.
func TestSuperPinSMCAdoption(t *testing.T) {
	const iters, step = 20000, 3
	cfg := testKernelCfg()
	prog := smcProg(t, iters, step)
	native, err := RunNative(cfg, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	var total []uint64
	factory := func(ctl *ToolCtl) Tool {
		tl := &inlineIcountTool{local: make([]uint64, 1)}
		if shared := ctl.CreateSharedArea(tl.local, MergeSum); ctl.SliceNum() == -1 {
			total = shared
		}
		return tl
	}
	opts := smallOpts(1)
	opts.Metrics = obs.NewMetrics()
	res, err := Run(cfg, prog, factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || res.ExitCode != native.ExitCode || total[0] != native.Ins {
		t.Fatalf("exit/icount = %d/%d, want %d/%d (%v)", res.ExitCode, total[0], native.ExitCode, native.Ins, res.Err)
	}
	builds, compiles := opts.Metrics.Counter("pin.trace_builds"), opts.Metrics.Counter("pin.cache.compiles")
	t.Logf("%d slices built %d traces and compiled %d", len(res.Slices), builds, compiles)
	if len(res.Slices) < 10 || builds >= compiles {
		t.Fatalf("%d slices built %d traces of %d compiled, want an adoption", len(res.Slices), builds, compiles)
	}
}

// inlineIcountTool counts each block with an inline add into its local
// counter, as the icount2 tool does.
type inlineIcountTool struct{ local []uint64 }

func (t *inlineIcountTool) Instrument(tr *pin.Trace) {
	for _, bbl := range tr.Bbls() {
		bbl.InsertInlineAdd(pin.Before, &t.local[0], uint64(bbl.NumIns()))
	}
}

// v2Entry returns a disk-cache entry in on-disk format version 2: the
// "SPAC" header stamped version 2 around payload. Version 2 also stored
// static analyses (kind 2) and hot-trace warm seeds (kind 3).
func v2Entry(key artifact.Key, kind byte, payload []byte) []byte {
	buf := []byte("SPAC")
	buf = binary.LittleEndian.AppendUint16(buf, 2) // format version
	buf = append(buf, kind)
	buf = append(buf, key[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(payload)
	return append(buf, sum[:]...)
}

// TestArtifactV2CacheDirIsAMiss: a cache directory left by format
// version 2 — predecode, sa and seed entries under their v2 names — is
// never decoded. Serial Pin and SuperPin runs on it count disk misses and
// no disk error, compute the predecode set cold, match an uncached run
// exactly, and leave a current-format entry the next store hydrates.
func TestArtifactV2CacheDirIsAMiss(t *testing.T) {
	cfg := testKernelCfg()
	cost := pin.DefaultCost()
	prog := func() *asm.Program { return buildWorkload(t, 3000, 31, kernel.SysRand) }

	factory, _ := newIcount()
	cold, err := RunPin(cfg, prog(), factory, cost)
	if err != nil {
		t.Fatal(err)
	}
	key := artifact.KeyOf(prog())
	dir := t.TempDir()
	for i, name := range []string{"predecode", "sa", "seed"} {
		path := filepath.Join(dir, key.String()+"."+name+".v2")
		if err := os.WriteFile(path, v2Entry(key, byte(i+1), []byte("version 2 payload")), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	store, err := artifact.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := newIcount()
	res, err := RunPinCached(cfg, prog(), f, cost, 0, store)
	if err != nil {
		t.Fatal(err)
	}
	checkPinResult(t, "v2 dir", res, cold)
	if st := store.Stats(); st.DiskMisses == 0 || st.DiskErrors != 0 || st.PredecodeComputes != 1 {
		t.Fatalf("v2 entries not counted as a miss: %+v", st)
	}

	spStore, err := artifact.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts(5)
	opts.Artifacts = spStore
	f, count := newIcount()
	spRes, err := Run(cfg, prog(), f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if spRes.Err != nil || spRes.ExitCode != cold.ExitCode || count() != cold.Ins {
		t.Fatalf("superpin on the v2 dir: exit/icount = %d/%d (err %v), want %d/%d",
			spRes.ExitCode, count(), spRes.Err, cold.ExitCode, cold.Ins)
	}
	if st := spStore.Stats(); st.DiskHits != 1 || st.DiskErrors != 0 || st.PredecodeComputes != 0 {
		t.Fatalf("current-format entry not hydrated: %+v", st)
	}
}
