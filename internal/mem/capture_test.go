package mem_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"misp/internal/core"
	"misp/internal/fault"
	"misp/internal/mem"
	"misp/internal/shredlib"
	"misp/internal/snap"
	"misp/internal/snap/wire"
	"misp/internal/sweep"
	"misp/internal/workloads"
)

// Capture visits only frames whose store generation is nonzero. These
// tests hold it to the full-scan encoder it replaced
// (EncodeSnapshotFullScan, export_test.go): byte-identical output on
// every state a machine can reach, which is the same as saying no write
// path skips the generation bump.

// checkOracle encodes p both ways, requires identical bytes of exactly
// the predicted size, and returns them.
func checkOracle(t *testing.T, what string, p *mem.Phys) []byte {
	t.Helper()
	want := wire.NewEncoder(1 << 20)
	p.EncodeSnapshotFullScan(want)
	resident := p.Resident()
	got := wire.NewEncoder(p.SnapshotSize(len(resident)))
	p.EncodeSnapshot(got, resident)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: touched-frame encoding (%d bytes, %d resident) differs from the full scan (%d bytes)",
			what, len(got.Bytes()), len(resident), len(want.Bytes()))
	}
	if len(got.Bytes()) != p.SnapshotSize(len(resident)) {
		t.Fatalf("%s: SnapshotSize = %d, encoded %d", what, p.SnapshotSize(len(resident)), len(got.Bytes()))
	}
	return got.Bytes()
}

func newPhys(t *testing.T, frames int) *mem.Phys {
	t.Helper()
	p, err := mem.NewPhys(uint64(frames) * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mutators is every way to change a byte of physical memory, each
// aimed at frame f.
var mutators = map[string]func(p *mem.Phys, f uint32){
	"WriteU8":  func(p *mem.Phys, f uint32) { p.WriteU8(uint64(f)<<mem.PageShift+7, 0xA5) },
	"WriteU16": func(p *mem.Phys, f uint32) { p.WriteU16(uint64(f)<<mem.PageShift+8, 0xA5A5) },
	"WriteU32": func(p *mem.Phys, f uint32) { p.WriteU32(uint64(f)<<mem.PageShift+12, 0xA5A5A5A5) },
	"WriteU64": func(p *mem.Phys, f uint32) { p.WriteU64(uint64(f)<<mem.PageShift+16, 0xA5A5A5A5A5A5A5A5) },
	"BytesRW":  func(p *mem.Phys, f uint32) { p.BytesRW(uint64(f)<<mem.PageShift+100, 3)[2] = 1 },
	"Frame":    func(p *mem.Phys, f uint32) { p.Frame(f)[mem.PageSize-1] = 1 },
	"FlipBit":  func(p *mem.Phys, f uint32) { p.FlipBit(uint64(f)<<mem.PageShift+9, 3) },
}

// TestCaptureOracleEveryMutator: each write path, on a never-touched
// frame and on a frame whose generation counter sits at its wrap point,
// leaves the frame in the touched set and in the image.
func TestCaptureOracleEveryMutator(t *testing.T) {
	for name, mutate := range mutators {
		for _, start := range []uint32{0, 1<<31 - 1, 1<<32 - 1} {
			p := newPhys(t, 64)
			const f = 40 // never allocated: frames pop in ascending order
			p.SetGen(f, start)
			mutate(p, f)
			pa := uint64(f) << mem.PageShift
			if g := p.Gen(pa); g == 0 || g == start {
				t.Fatalf("%s from generation %#x: generation now %#x (must change, must not read 0)", name, start, g)
			}
			if !slices.Contains(p.Resident(), f) {
				t.Fatalf("%s from generation %#x: frame missing from the resident list", name, start)
			}
			checkOracle(t, name, p)
		}
	}
}

// TestCaptureOracleWrapRun drives one frame's counter through the wrap
// by stores alone: it must advance on every store and never read 0.
func TestCaptureOracleWrapRun(t *testing.T) {
	p := newPhys(t, 8)
	p.SetGen(3, 1<<32-4)
	prev := p.Gen(3 << mem.PageShift)
	for i := 0; i < 8; i++ {
		p.WriteU8(3<<mem.PageShift, uint8(i+1))
		g := p.Gen(3 << mem.PageShift)
		if g == 0 || g == prev {
			t.Fatalf("store %d: generation %#x -> %#x", i, prev, g)
		}
		prev = g
		checkOracle(t, "wrap", p)
	}
}

// TestCaptureOracleAllocFree: an allocated frame that still reads zero
// is not stored; a freed frame keeps its stale content in the image; a
// reallocated one is zero again and drops out.
func TestCaptureOracleAllocFree(t *testing.T) {
	p := newPhys(t, 32)
	checkOracle(t, "fresh", p)
	if n := len(p.Resident()); n != 0 {
		t.Fatalf("fresh memory has %d resident frames", n)
	}
	zero, _ := p.AllocFrame()
	stale, _ := p.AllocFrame()
	p.WriteU64(uint64(stale)<<mem.PageShift+64, 0xDEAD)
	p.FreeFrame(stale)
	checkOracle(t, "alloc+free", p)
	if r := p.Resident(); slices.Contains(r, zero) || !slices.Contains(r, stale) {
		t.Fatalf("resident = %v, want the stale freed frame %d and not the all-zero allocated frame %d", r, stale, zero)
	}
	again, _ := p.AllocFrame()
	if again != stale {
		t.Fatalf("reallocation returned frame %d, want %d", again, stale)
	}
	checkOracle(t, "realloc", p)
	if slices.Contains(p.Resident(), stale) {
		t.Fatalf("reallocated (zeroed) frame %d is still resident", stale)
	}
	// A fault-plane flip in a frame no allocator ever handed out.
	p.FlipBit(31<<mem.PageShift+5, 2)
	checkOracle(t, "flip", p)
	if !slices.Contains(p.Resident(), 31) {
		t.Fatal("bit flip in a never-allocated frame is missing from the image")
	}
}

// TestCaptureOracleRestore: restore marks what it copies in, so the
// image of a restored memory — before and after further writes — still
// matches the full scan, and round-trips to the same bytes.
func TestCaptureOracleRestore(t *testing.T) {
	p := newPhys(t, 32)
	for i := 0; i < 5; i++ {
		f, _ := p.AllocFrame()
		p.WriteU32(uint64(f)<<mem.PageShift+uint64(i)*8, 0x1000+uint32(i))
	}
	img := checkOracle(t, "origin", p)
	q, err := mem.RestorePhys(wire.NewDecoder(img), p.Size())
	if err != nil {
		t.Fatal(err)
	}
	if again := checkOracle(t, "restored", q); !bytes.Equal(again, img) {
		t.Fatal("restored memory re-encodes to different bytes")
	}
	f, _ := q.AllocFrame()
	q.WriteU8(uint64(f)<<mem.PageShift, 9)
	checkOracle(t, "restored+write", q)
}

// --- whole machines ---------------------------------------------------

type oracleCase struct {
	app  string
	mode shredlib.Mode
	top  core.Topology
}

func (c oracleCase) String() string { return fmt.Sprintf("%s/%v/%v", c.app, c.mode, c.top) }

var oracleCases = []oracleCase{
	{"gauss", shredlib.ModeShred, core.Topology{3}},
	{"raytracer", shredlib.ModeShred, core.Topology{0}},
	{"swim", shredlib.ModeThread, make(core.Topology, 4)}, // SMP, OS threads, timer preemption
}

func oracleCfg(top core.Topology) core.Config {
	cfg := workloads.DefaultConfig(top)
	cfg.PhysMem = 16 << 20 // the oracle scans all of it, twice per check
	cfg.MaxCycles = 8_000_000_000
	return cfg
}

func prepare(t *testing.T, c oracleCase, cfg core.Config) *workloads.Prepared {
	t.Helper()
	w, err := workloads.ByName(c.app)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := workloads.Prepare(w, c.mode, cfg, workloads.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func pauseAt(t *testing.T, m *core.Machine, cycle uint64) {
	t.Helper()
	m.SetPause(cycle)
	if err := m.Run(); !errors.Is(err, core.ErrPaused) {
		t.Fatalf("expected ErrPaused at cycle %d, got %v", cycle, err)
	}
	m.SetPause(0)
}

// TestCaptureOracleMachines checks the encoder against the full scan
// along a machine's life: cold prepare, a mid-run pause, a fork of that
// pause (generations rebuilt by restore), the fork run further, and
// both machines at completion.
func TestCaptureOracleMachines(t *testing.T) {
	for _, c := range oracleCases {
		t.Run(c.String(), func(t *testing.T) {
			cfg := oracleCfg(c.top)
			ref := prepare(t, c, cfg)
			if _, err := ref.Run(); err != nil {
				t.Fatal(err)
			}
			end := ref.Machine.MaxClock()
			ref.Release()

			pr := prepare(t, c, cfg)
			defer pr.Release()
			checkOracle(t, "cold prepare", pr.Machine.Phys)
			pauseAt(t, pr.Machine, end/3)
			checkOracle(t, "mid-run pause", pr.Machine.Phys)

			img, err := snap.Capture(pr.Machine, pr.Kernel)
			if err != nil {
				t.Fatal(err)
			}
			m, k, err := img.Fork(nil)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Release()
			checkOracle(t, "fork", m.Phys)
			again, err := snap.Capture(m, k)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), img.Bytes()) {
				t.Fatal("capture of an untouched fork differs from the image it was forked from")
			}
			pauseAt(t, m, 2*end/3)
			checkOracle(t, "fork, run on", m.Phys)

			for name, mm := range map[string]*core.Machine{"original": pr.Machine, "fork": m} {
				if err := mm.Run(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkOracle(t, name+" at completion", mm.Phys)
			}
		})
	}
}

// TestCaptureOracleFaultPlane: memory bit flips land in frames nobody
// allocated and corrupted TLB entries let stores through read-only
// mappings; the image must still match the full scan at every stop.
func TestCaptureOracleFaultPlane(t *testing.T) {
	c := oracleCases[0]
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := oracleCfg(c.top)
		cfg.MaxCycles = 200_000_000
		cfg.Fault = fault.Uniform(seed, 5_000, fault.MemBitFlip, fault.TLBCorrupt)
		pr := prepare(t, c, cfg)
		for stop := uint64(200_000); ; stop += 200_000 {
			pr.Machine.SetPause(stop)
			err := pr.Machine.Run()
			checkOracle(t, fmt.Sprintf("seed %d, cycle %d", seed, stop), pr.Machine.Phys)
			if !errors.Is(err, core.ErrPaused) {
				// Completion or a structured diagnosis: either way the run is over.
				var d *fault.Diagnosis
				if err != nil && !errors.As(err, &d) {
					t.Fatalf("seed %d: run failed without a diagnosis: %v", seed, err)
				}
				break
			}
		}
		if pr.Machine.FaultPlan().Total() == 0 {
			t.Fatalf("seed %d: no fault was injected", seed)
		}
		pr.Release()
	}
}

// --- the recycler -----------------------------------------------------

// dirty writes through every mutator across the memory, allocates, and
// restores on top, leaving a tenant as messy as one can be.
func dirty(t *testing.T, p *mem.Phys) {
	t.Helper()
	frames := uint32(p.Size() / mem.PageSize)
	f := uint32(1)
	for _, mutate := range mutators {
		mutate(p, f%frames)
		mutate(p, frames-1-f%frames)
		f += 7
	}
	for i := 0; i < 4; i++ {
		a, err := p.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		p.WriteU64(uint64(a)<<mem.PageShift, ^uint64(0))
	}
	p.SetGen(frames/2, 1<<32-1)
	p.WriteU8(uint64(frames/2)<<mem.PageShift, 1) // generation wraps to its floor
}

// TestReleaseLeavesArraysZero: whatever the tenant did, the arrays go
// back all-zero — data and generations — which is what the next
// NewPhys or RestorePhys assumes.
func TestReleaseLeavesArraysZero(t *testing.T) {
	p := newPhys(t, 96)
	dirty(t, p)
	img := checkOracle(t, "dirty", p)
	q, err := mem.RestorePhys(wire.NewDecoder(img), p.Size())
	if err != nil {
		t.Fatal(err)
	}
	dirty(t, q)
	for name, x := range map[string]*mem.Phys{"built": p, "restored": q} {
		data, gens := x.Arrays()
		x.Release()
		for i, b := range data {
			if b != 0 {
				t.Fatalf("%s: byte %#x = %#x after Release", name, i, b)
			}
		}
		for f, g := range gens {
			if g != 0 {
				t.Fatalf("%s: frame %d generation = %#x after Release", name, f, g)
			}
		}
	}
}

// TestReleaseRejectedRestore: a restore that fails half way has already
// written into a pooled array; it must hand it back clean.
func TestReleaseRejectedRestore(t *testing.T) {
	p := newPhys(t, 16)
	dirty(t, p)
	img := checkOracle(t, "dirty", p)
	if _, err := mem.RestorePhys(wire.NewDecoder(img[:len(img)-100]), p.Size()); err == nil {
		t.Fatal("truncated image restored without error")
	}
	// Whatever array the next tenant gets, it is clean.
	q := newPhys(t, 16)
	if n := len(q.Resident()); n != 0 {
		t.Fatalf("memory after a rejected restore has %d resident frames", n)
	}
	checkOracle(t, "after rejected restore", q)
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s on a released Phys did not panic", what)
		}
	}()
	fn()
}

// TestReleasePoisons: a released Phys cannot read or write the arrays
// it gave away; releasing twice is harmless.
func TestReleasePoisons(t *testing.T) {
	p := newPhys(t, 16)
	f, _ := p.AllocFrame()
	p.Release()
	p.Release()
	pa := uint64(f) << mem.PageShift
	mustPanic(t, "ReadU64", func() { p.ReadU64(pa) })
	mustPanic(t, "Bytes", func() { p.Bytes(pa, 8) })
	mustPanic(t, "Gen", func() { p.Gen(pa) })
	for name, mutate := range mutators {
		mustPanic(t, name, func() { mutate(p, f) })
	}
	if _, err := p.AllocFrame(); err == nil {
		t.Fatal("AllocFrame on a released Phys succeeded")
	}
	if p.InRange(pa, 1) {
		t.Fatal("a released Phys still claims a valid range")
	}
}

// TestRecycleConcurrent: sweep workers building, dirtying and releasing
// memories of two sizes at once never see each other's bytes (run under
// -race in make snapcheck).
func TestRecycleConcurrent(t *testing.T) {
	_, _, err := sweep.Map(8, 64, func(i int) (struct{}, error) {
		frames := 64 + 64*(i%2)
		p, err := mem.NewPhys(uint64(frames) * mem.PageSize)
		if err != nil {
			return struct{}{}, err
		}
		defer p.Release()
		if n := len(p.Resident()); n != 0 {
			return struct{}{}, fmt.Errorf("job %d: new memory has %d resident frames", i, n)
		}
		tag := uint64(i)<<32 | 0xC0FFEE
		for f := 1; f < frames; f += 3 {
			p.WriteU64(uint64(f)<<mem.PageShift+8, tag+uint64(f))
		}
		for f := 1; f < frames; f += 3 {
			if got := p.ReadU64(uint64(f)<<mem.PageShift + 8); got != tag+uint64(f) {
				return struct{}{}, fmt.Errorf("job %d: frame %d reads %#x, wrote %#x", i, f, got, tag+uint64(f))
			}
		}
		if got, want := len(p.Resident()), (frames+1)/3; got != want {
			return struct{}{}, fmt.Errorf("job %d: %d resident frames, wrote %d", i, got, want)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
