package snap_test

import (
	"bytes"
	"runtime"
	"testing"

	"misp/internal/core"
	"misp/internal/shredlib"
	"misp/internal/snap"
	"misp/internal/workloads"
)

// --- exact-size capture buffer ---------------------------------------

// TestCaptureBufferSized: a Snapshot outlives its capture by as long as
// a warm pool or a checkpoint file reference does, so it must not pin
// more than StateSlack beyond its image — cold, mid-run with many
// resident frames, and when the non-memory state (a wide machine)
// dwarfs the slack.
func TestCaptureBufferSized(t *testing.T) {
	// check captures pr and returns the size of the image's non-memory
	// part.
	check := func(what string, pr *workloads.Prepared) int {
		t.Helper()
		s, err := snap.Capture(pr.Machine, pr.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		if spare := cap(s.Bytes()) - len(s.Bytes()); spare > snap.StateSlack {
			t.Fatalf("%s: %d-byte image pins %d spare bytes (bound %d)", what, s.Size(), spare, snap.StateSlack)
		}
		phys := pr.Machine.Phys
		return s.Size() - phys.SnapshotSize(len(phys.Resident()))
	}
	cfg := testCfg(t)
	ref, _ := refRun(t, cfg)

	pr := prep(t, cfg)
	check("cold", pr)
	pauseMid(t, pr, ref.Cycles/2)
	check("mid-run", pr)

	wide := cfg
	wide.Topology = core.Topology{31, 31} // ~3 KiB of TLB and registers per sequencer
	pr = prep(t, wide)
	if state := check("64 sequencers", pr); state < 2*snap.StateSlack {
		t.Fatalf("non-memory state is %d bytes: it does not outgrow the %d-byte slack", state, snap.StateSlack)
	}
}

// --- recycled arrays -------------------------------------------------

// arrayID identifies the memory array a machine sits on.
func arrayID(m *core.Machine) *byte { return &m.Phys.Bytes(0, 1)[0] }

// life is everything a machine's run is judged on, from one tenant of
// an array.
type life struct {
	image []byte // post-prepare capture
	mid   []byte // capture at a mid-run pause
	fp    []byte // instrs, cycles, counters, metrics, obs stream at completion
}

func live(t *testing.T, pr *workloads.Prepared, mid uint64) life {
	t.Helper()
	var l life
	s, err := snap.Capture(pr.Machine, pr.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	l.image = s.Bytes()
	pauseMid(t, pr, mid)
	if s, err = snap.Capture(pr.Machine, pr.Kernel); err != nil {
		t.Fatal(err)
	}
	l.mid = s.Bytes()
	_, l.fp = mustRun(t, pr)
	return l
}

func (l life) equal(o life) bool {
	return bytes.Equal(l.image, o.image) && bytes.Equal(l.mid, o.mid) && bytes.Equal(l.fp, o.fp)
}

// TestRecycleParity: a machine built on, or forked onto, an array that a
// dirtier tenant released is indistinguishable from one on a fresh
// array — same capture bytes cold and mid-run, same instrs, cycles,
// metrics and event stream. That holds for the initial backing, for a
// backing grown to the whole memory and released dirty end to end, and
// for a machine of another PhysMem, which may take the same pooled
// initial backing.
func TestRecycleParity(t *testing.T) {
	// Sizes no other test in this package uses, so the generations, and
	// a backing grown to the whole memory, are certain to be fresh the
	// first time. The initial backing is pooled by length across every
	// size; two collections empty every sync.Pool (the first moves its
	// items to the victim cache, the second drops them), so the first
	// machines below are on fresh initial backings too.
	cfg := testCfg(t)
	cfg.PhysMem = 40<<20 + 3<<12
	other := cfg
	other.PhysMem = 24<<20 + 5<<12
	runtime.GC()
	runtime.GC()

	fresh := prep(t, cfg)
	ref, err := prep(t, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	mid := ref.Cycles / 2
	want := live(t, fresh, mid)
	wantOther := live(t, prep(t, other), mid)

	// A machine whose backing grows to the whole memory: one bit flipped
	// in the last frame, which the program never allocates. The first
	// is on a fresh array and is never released.
	top := cfg.PhysMem - 8
	grownPrep := func() *workloads.Prepared {
		pr := prep(t, cfg)
		pr.Machine.Phys.FlipBit(top, 3)
		if got := pr.Machine.Phys.Backed(); got != cfg.PhysMem {
			t.Fatalf("a flip in the last frame left a %d-byte backing, want %d", got, cfg.PhysMem)
		}
		return pr
	}
	wantGrown := live(t, grownPrep(), mid)

	// The dirtier tenant: a bigger program run to completion, plus
	// writes the allocator never made, up to the last frame, so its
	// backing grows through every doubling to the whole memory. Each
	// outgrown backing, dirty from the run, is parked by the growth.
	released := map[*byte]bool{}
	release := func(m *core.Machine) {
		released[arrayID(m)] = true
		m.Release()
	}
	w, err := workloads.ByName("raytracer")
	if err != nil {
		t.Fatal(err)
	}
	big, err := workloads.Prepare(w, shredlib.ModeShred, cfg, workloads.SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := big.Run(); err != nil {
		t.Fatal(err)
	}
	released[arrayID(big.Machine)] = true // the initial backing, outgrown below
	for pa := uint64(4096); pa < cfg.PhysMem; pa += 37 * 4096 {
		big.Machine.Phys.FlipBit(pa+pa%4096, 5)
	}
	big.Machine.Phys.WriteU64(top, ^uint64(0))
	if got := big.Machine.Phys.Backed(); got != cfg.PhysMem {
		t.Fatalf("the dirty tenant's backing is %d bytes, want the whole %d", got, cfg.PhysMem)
	}
	if len(big.Machine.Phys.Resident()) <= len(fresh.Machine.Phys.Resident()) {
		t.Fatal("the dirty tenant is no dirtier than the reference")
	}
	release(big.Machine)
	release(fresh.Machine)

	// sync.Pool may drop a released array (it does so at random under
	// -race), so build until one comes back.
	recycled := func(build func() *workloads.Prepared) *workloads.Prepared {
		t.Helper()
		for try := 0; try < 64; try++ {
			pr := build()
			if released[arrayID(pr.Machine)] {
				return pr
			}
			release(pr.Machine)
		}
		t.Fatal("no released array was ever recycled")
		return nil
	}

	cold := recycled(func() *workloads.Prepared { return prep(t, cfg) })
	if got := live(t, cold, mid); !got.equal(want) {
		t.Fatal("a cold machine on a recycled array diverged from one on a fresh array")
	}
	release(cold.Machine)

	img, err := snap.Load(want.mid)
	if err != nil {
		t.Fatal(err)
	}
	forked := recycled(func() *workloads.Prepared {
		m, k, err := img.Fork(nil)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := workloads.Resume(fresh.W, fresh.Mode, m, k)
		if err != nil {
			t.Fatal(err)
		}
		return pr
	})
	s, err := snap.Capture(forked.Machine, forked.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.Bytes(), want.mid) {
		t.Fatal("a fork onto a recycled array re-captures to different bytes")
	}
	if _, fp := mustRun(t, forked); !bytes.Equal(fp, want.fp) {
		t.Fatal("a fork onto a recycled array finished differently from the uninterrupted run")
	}
	release(forked.Machine)

	// A machine that grows to the whole memory takes the backing the
	// tenant released dirty from end to end, and still matches the one
	// that grew on a fresh array.
	grown := recycled(grownPrep)
	if got := live(t, grown, mid); !got.equal(wantGrown) {
		t.Fatal("a machine grown onto a recycled backing diverged from one grown on a fresh backing")
	}
	release(grown.Machine)

	// Backings are pooled by length, not by PhysMem: the other size's
	// next machine may sit on an array released above, and must still
	// have its own geometry and match its own first run.
	pr := prep(t, other)
	if pr.Machine.Phys.Size() != other.PhysMem {
		t.Fatalf("a %d-byte machine reports %d bytes", other.PhysMem, pr.Machine.Phys.Size())
	}
	if got := live(t, pr, mid); !got.equal(wantOther) {
		t.Fatal("a machine of another PhysMem diverged after releases at this one")
	}
}

// TestReleaseUseAfterPanics: running a released machine panics at its
// first memory access instead of executing on someone else's array.
func TestReleaseUseAfterPanics(t *testing.T) {
	pr := prep(t, testCfg(t))
	pr.Release()
	pr.Release() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("running a released machine did not panic")
		}
	}()
	pr.Run()
}
