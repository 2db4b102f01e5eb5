package snap_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"misp/internal/asm"
	"misp/internal/core"
	"misp/internal/fault"
	"misp/internal/kernel"
	"misp/internal/shredlib"
	"misp/internal/snap"
	"misp/internal/workloads"
)

var updateGolden = flag.Bool("update", false,
	"rewrite testdata/golden_snapshots.txt from this build (only for a deliberate format change, which also bumps snap.Version)")

const goldenSnapshotsPath = "testdata/golden_snapshots.txt"

// checkGolden compares got, one point per line, with the file at path
// (whose first line is a header), or rewrites the file under -update.
func checkGolden(t *testing.T, path, header string, got []string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(header+"\n"+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")[1:] // drop the header
	if len(want) != len(got) {
		t.Fatalf("%s has %d points, this build made %d", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s:\n want %s\n  got %s", path, want[i], got[i])
		}
	}
}

// goldenImage is one snapshot the golden gate pins.
type goldenImage struct {
	name  string
	image []byte
}

// goldenCfg is the base configuration of every golden point: MISP 1x8
// with a memory small enough that each image is mostly program state.
func goldenCfg(top core.Topology) core.Config {
	cfg := workloads.DefaultConfig(top)
	cfg.PhysMem = 32 << 20
	cfg.MaxCycles = 2_000_000_000
	return cfg
}

// capture snapshots m and k, failing the test on error.
func capture(t testing.TB, m *core.Machine, k *kernel.Kernel) []byte {
	t.Helper()
	s, err := snap.Capture(m, k)
	if err != nil {
		t.Fatal(err)
	}
	return s.Bytes()
}

// midRun builds a system twice: once to run to the end (a run may end
// in a fault Diagnosis), once to pause at half that run's length — the
// first OMS's final clock, which a stalled AMS's clock jump cannot
// inflate — and capture there.
func midRun(t testing.TB, build func() (*core.Machine, *kernel.Kernel)) []byte {
	t.Helper()
	m, _ := build()
	if err := m.Run(); err != nil {
		var d *fault.Diagnosis
		if !errors.As(err, &d) {
			t.Fatal(err)
		}
	}
	mid := m.Seqs[0].Clock / 2
	m.Release()

	m, k := build()
	defer m.Release()
	m.SetPause(mid)
	if err := m.Run(); !errors.Is(err, core.ErrPaused) {
		t.Fatalf("expected a pause at cycle %d, got %v", mid, err)
	}
	m.SetPause(0)
	return capture(t, m, k)
}

// workload returns a function that prepares app in mode on cfg at test size.
func workload(t testing.TB, app string, mode shredlib.Mode, cfg core.Config) func() (*core.Machine, *kernel.Kernel) {
	return func() (*core.Machine, *kernel.Kernel) {
		t.Helper()
		w, err := workloads.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := workloads.Prepare(w, mode, cfg, workloads.SizeTest)
		if err != nil {
			t.Fatal(err)
		}
		return pr.Machine, pr.Kernel
	}
}

// joinSleepProg is a bare-kernel program (no ShredLib): main starts five
// workers and joins them in order; worker i sleeps i*300k cycles, then
// spins for about 900k. On two processors, half way through, main is a
// joiner, two workers run, and the rest sit on the ready and sleeping
// queues.
const joinSleepProg = `
main:
    li  r11, 1
    la  r12, tids
tloop:
    la  r1, worker
    li  r2, 0
    mov r3, r11
    li  r4, 0
    li  r0, 7         ; thread_create(entry, stack, arg, demand)
    syscall
    std r0, [r12]
    addi r12, r12, 8
    addi r11, r11, 1
    li  r9, 6
    bne r11, r9, tloop
    la  r12, tids
    li  r11, 0
jloop:
    ldd r1, [r12]
    li  r0, 8         ; thread_join
    syscall
    addi r12, r12, 8
    addi r11, r11, 1
    li  r9, 5
    bne r11, r9, jloop
    li  r1, 0
    li  r0, 1         ; exit
    syscall
worker:
    li  r2, 300000
    mul r1, r1, r2
    li  r0, 12        ; sleep(r1 cycles)
    syscall
    li  r10, 300000
spin:
    addi r10, r10, -1
    li  r9, 0
    bne r10, r9, spin
    li  r0, 2         ; thread_exit
    syscall
.data
tids: .u64 0, 0, 0, 0, 0
`

// goldenImages builds every image the golden gate pins: each workload
// right after Prepare (shred mode, MISP 1x8, test size), then mid-run
// captures that populate the rest of the format — kernel threads,
// joiners and run queues, an event log, a PC profile, a fault plane with every kind, and a
// two-processor MISP machine.
func goldenImages(t testing.TB) []goldenImage {
	t.Helper()
	var out []goldenImage
	add := func(name string, image []byte) { out = append(out, goldenImage{name, image}) }

	for _, w := range workloads.All() {
		m, k := workload(t, w.Name, shredlib.ModeShred, goldenCfg(core.Topology{7}))()
		add("prepare/"+w.Name, capture(t, m, k))
		m.Release()
	}

	add("mid/thread-smp4", midRun(t, workload(t, "swim", shredlib.ModeThread, goldenCfg(make(core.Topology, 4)))))
	add("mid/join-sleep-smp2", midRun(t, func() (*core.Machine, *kernel.Kernel) {
		m, err := core.New(goldenCfg(core.Topology{0, 0}))
		if err != nil {
			t.Fatal(err)
		}
		k := kernel.New(m)
		if _, err := k.Spawn("join-sleep", asm.MustAssemble(joinSleepProg)); err != nil {
			t.Fatal(err)
		}
		return m, k
	}))
	cfg := goldenCfg(core.Topology{7})
	cfg.TraceEvents = true
	add("mid/trace", midRun(t, workload(t, "gauss", shredlib.ModeShred, cfg)))
	cfg = goldenCfg(core.Topology{7})
	cfg.ProfilePC = true
	add("mid/profile-pc", midRun(t, workload(t, "gauss", shredlib.ModeShred, cfg)))
	cfg = goldenCfg(core.Topology{7})
	cfg.Fault = fault.Uniform(goldenFaultSeed, goldenFaultPeriod)
	add("mid/faults-all-kinds", midRun(t, workload(t, "raytracer", shredlib.ModeShred, cfg)))
	add("mid/misp-2x4", midRun(t, workload(t, "gauss", shredlib.ModeShred, goldenCfg(core.Topology{3, 3}))))
	return out
}

// The fault point's plan: with every kind at this seed and mean period,
// the raytracer loses AMSs early enough that, half way through, the
// plan's log and the kernel's dead, latched and backlog sets all hold
// entries (found by search: the backlog is rarely non-empty).
const (
	goldenFaultSeed   = 9
	goldenFaultPeriod = 2_000
)

// TestCaptureGolden pins the snapshot format: the length and SHA-256 of
// every golden image, each of which must also survive Fork and Capture
// byte for byte. A refactor of any codec must leave every line alone; a
// deliberate layout change bumps snap.Version and rewrites the file with
// -update.
func TestCaptureGolden(t *testing.T) {
	var got []string
	for _, g := range goldenImages(t) {
		got = append(got, fmt.Sprintf("%s %d %x", g.name, len(g.image), sha256.Sum256(g.image)))
		s, err := snap.Load(g.image)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		m, k, err := s.Fork(nil)
		if err != nil {
			t.Fatalf("%s: fork: %v", g.name, err)
		}
		if again := capture(t, m, k); !bytes.Equal(again, g.image) {
			t.Errorf("%s: capture of its fork differs (%d bytes, want %d)", g.name, len(again), len(g.image))
		}
		m.Release()
	}
	checkGolden(t, goldenSnapshotsPath,
		"# point bytes sha256; rewrite with: go test ./internal/snap -run TestCaptureGolden -update", got)
}
