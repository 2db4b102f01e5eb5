package snap_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"misp/internal/core"
	"misp/internal/fault"
	"misp/internal/obs"
	"misp/internal/shredlib"
	"misp/internal/snap"
	"misp/internal/snap/wire"
	"misp/internal/workloads"
)

// The snapshot plane's contract, difftested here:
//  1. capturing the same state twice yields identical bytes,
//  2. a fork is bit-identical to a cold prepare with the same config,
//  3. pause+resume ≡ uninterrupted (same loop flavor),
//  4. mid-run capture → restore → run-to-completion ≡ uninterrupted,
//     including counters, metrics, and the obs event stream, on both
//     loops and under fault injection.

func testCfg(t *testing.T) core.Config {
	t.Helper()
	cfg := workloads.DefaultConfig(core.Topology{3})
	cfg.PhysMem = 64 << 20
	cfg.MaxCycles = 8_000_000_000
	cfg.TraceEvents = true
	return cfg
}

func prep(t *testing.T, cfg core.Config) *workloads.Prepared {
	t.Helper()
	w, err := workloads.ByName("gauss")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := workloads.Prepare(w, shredlib.ModeShred, cfg, workloads.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// fingerprint summarizes everything a run is judged on: per-sequencer
// clocks, PCs and counters, the retired-instruction total, the full
// metrics registry, and the complete obs event stream.
func fingerprint(t *testing.T, m *core.Machine) []byte {
	t.Helper()
	w := wire.NewEncoder(1 << 16)
	w.U64(&m.Steps)
	for _, s := range m.Seqs {
		for _, v := range []*uint64{
			&s.Clock, &s.PC, &s.C.Instrs, &s.C.Syscalls, &s.C.PageFaults,
			&s.C.Timers, &s.C.Interrupts, &s.C.ProxySyscalls, &s.C.ProxyPageFaults,
			&s.C.RingStall, &s.C.ProxyStall, &s.C.IdleCycles, &s.C.SignalsSent,
			&s.C.SignalsReceived, &s.C.YieldsTaken,
		} {
			w.U64(v)
		}
	}
	m.Obs.Metrics.Snapshot(w)
	m.Obs.Bus.Snapshot(w)
	return w.Bytes()
}

func mustRun(t *testing.T, pr *workloads.Prepared) (*workloads.RunResult, []byte) {
	t.Helper()
	res, err := pr.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, fingerprint(t, pr.Machine)
}

func TestCaptureDeterministic(t *testing.T) {
	pr := prep(t, testCfg(t))
	s1, err := snap.Capture(pr.Machine, pr.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := snap.Capture(pr.Machine, pr.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
		t.Fatalf("two captures of the same state differ (%d vs %d bytes)", s1.Size(), s2.Size())
	}
}

func TestForkMatchesColdPrepare(t *testing.T) {
	cfg := testCfg(t)
	pr := prep(t, cfg)
	s, err := snap.Capture(pr.Machine, pr.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	// Capture is read-only: the captured machine must still run clean.
	coldRes, coldFP := mustRun(t, pr)

	m, k, err := s.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	fpr, err := workloads.Resume(pr.W, pr.Mode, m, k)
	if err != nil {
		t.Fatal(err)
	}
	forkRes, forkFP := mustRun(t, fpr)
	if coldRes.Checksum != forkRes.Checksum || coldRes.Cycles != forkRes.Cycles {
		t.Fatalf("fork result diverged: cold (%g, %d cy) vs fork (%g, %d cy)",
			coldRes.Checksum, coldRes.Cycles, forkRes.Checksum, forkRes.Cycles)
	}
	if !bytes.Equal(coldFP, forkFP) {
		t.Fatalf("fork fingerprint diverged from cold run")
	}
}

// TestForkRunOnlyOverride forks one post-Prepare snapshot into a
// different run-only configuration and checks the fork is bit-identical
// to a cold prepare with that full configuration.
func TestForkRunOnlyOverride(t *testing.T) {
	base := testCfg(t)
	pr := prep(t, base)
	s, err := snap.Capture(pr.Machine, pr.Kernel)
	if err != nil {
		t.Fatal(err)
	}

	over := base
	over.RingPolicy = core.RingMonitorCR
	over.WatchdogHorizon = 50_000_000

	m, k, err := s.Fork(func(c *core.Config) { *c = over })
	if err != nil {
		t.Fatal(err)
	}
	fpr, err := workloads.Resume(pr.W, pr.Mode, m, k)
	if err != nil {
		t.Fatal(err)
	}
	forkRes, forkFP := mustRun(t, fpr)

	coldRes, coldFP := mustRun(t, prep(t, over))
	if coldRes.Checksum != forkRes.Checksum || coldRes.Cycles != forkRes.Cycles {
		t.Fatalf("override fork diverged: cold (%g, %d cy) vs fork (%g, %d cy)",
			coldRes.Checksum, coldRes.Cycles, forkRes.Checksum, forkRes.Cycles)
	}
	if !bytes.Equal(coldFP, forkFP) {
		t.Fatalf("override fork fingerprint diverged from cold run")
	}
}

func TestStructuralOverrideRejected(t *testing.T) {
	pr := prep(t, testCfg(t))
	s, err := snap.Capture(pr.Machine, pr.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*core.Config){
		"topology":      func(c *core.Config) { c.Topology = core.Topology{7} },
		"physmem":       func(c *core.Config) { c.PhysMem *= 2 },
		"timerinterval": func(c *core.Config) { c.TimerInterval *= 2 },
		"signalcost":    func(c *core.Config) { c.SignalCost += 1 },
		"traceevents":   func(c *core.Config) { c.TraceEvents = false },
		"profilepc":     func(c *core.Config) { c.ProfilePC = true },
	} {
		if _, _, err := s.Fork(mut); err == nil || !strings.Contains(err.Error(), "structural") {
			t.Errorf("fork with %s override: err = %v, want the structural-parameter error", name, err)
		}
	}
}

// pauseMid runs pr until roughly the middle of the reference run and
// returns the paused machine (checked to have actually paused).
func pauseMid(t *testing.T, pr *workloads.Prepared, mid uint64) {
	t.Helper()
	pr.Machine.SetPause(mid)
	err := pr.Machine.Run()
	if !errors.Is(err, core.ErrPaused) {
		t.Fatalf("expected ErrPaused at cycle %d, got %v", mid, err)
	}
	pr.Machine.SetPause(0)
}

func refRun(t *testing.T, cfg core.Config) (*workloads.RunResult, []byte) {
	t.Helper()
	return mustRun(t, prep(t, cfg))
}

// prepOn is prep on the selected loop: oracle picks core.Machine.Oracle,
// the legacy loop the fast path is difftested against.
func prepOn(t *testing.T, cfg core.Config, oracle bool) *workloads.Prepared {
	t.Helper()
	pr := prep(t, cfg)
	pr.Machine.Oracle = oracle
	return pr
}

func TestPauseResumeEquivalence(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		cfg := testCfg(t)
		ref, refFP := mustRun(t, prepOn(t, cfg, legacy))

		pr := prepOn(t, cfg, legacy)
		// Pause twice at different points, then run to completion.
		pauseMid(t, pr, ref.Cycles/3)
		pauseMid(t, pr, 2*ref.Cycles/3)
		res, fp := mustRun(t, pr)
		if res.Checksum != ref.Checksum || res.Cycles != ref.Cycles {
			t.Fatalf("legacy=%v: paused run diverged: (%g, %d cy) vs (%g, %d cy)",
				legacy, res.Checksum, res.Cycles, ref.Checksum, ref.Cycles)
		}
		if !bytes.Equal(fp, refFP) {
			t.Fatalf("legacy=%v: paused run fingerprint diverged", legacy)
		}
	}
}

func TestMidRunCaptureRestore(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		cfg := testCfg(t)
		ref, refFP := mustRun(t, prepOn(t, cfg, legacy))

		pr := prepOn(t, cfg, legacy)
		pauseMid(t, pr, ref.Cycles/2)
		s, err := snap.Capture(pr.Machine, pr.Kernel)
		if err != nil {
			t.Fatalf("legacy=%v: mid-run capture: %v", legacy, err)
		}
		// The paused original resumes to completion...
		res, fp := mustRun(t, pr)
		if !bytes.Equal(fp, refFP) || res.Checksum != ref.Checksum {
			t.Fatalf("legacy=%v: resumed original diverged from uninterrupted run", legacy)
		}
		// ...and the restored copy must match it bit for bit.
		m, k, err := s.Fork(nil)
		if err != nil {
			t.Fatal(err)
		}
		m.Oracle = legacy // host-side, so not in the image
		rpr, err := workloads.Resume(pr.W, pr.Mode, m, k)
		if err != nil {
			t.Fatal(err)
		}
		rres, rfp := mustRun(t, rpr)
		if rres.Checksum != ref.Checksum || rres.Cycles != ref.Cycles {
			t.Fatalf("legacy=%v: restored run diverged: (%g, %d cy) vs (%g, %d cy)",
				legacy, rres.Checksum, rres.Cycles, ref.Checksum, ref.Cycles)
		}
		if !bytes.Equal(rfp, refFP) {
			t.Fatalf("legacy=%v: restored run fingerprint diverged (events/metrics)", legacy)
		}
	}
}

// TestMidRunCaptureRestoreWithFaults exercises the fault-plan stream
// restore: the injection schedule must continue from the captured
// position, not restart.
func TestMidRunCaptureRestoreWithFaults(t *testing.T) {
	cfg := testCfg(t)
	cfg.MaxCycles = 200_000_000
	cfg.Fault = fault.Uniform(12345, 20_000, fault.SignalDelay, fault.TLBFlush)

	finish := func(pr *workloads.Prepared) []byte {
		// Under injection the run may legitimately end in a Diagnosis;
		// equivalence is judged on the final machine state either way.
		_, err := pr.Run()
		var d *fault.Diagnosis
		if err != nil && !errors.As(err, &d) {
			t.Fatalf("run failed without a structured diagnosis: %v", err)
		}
		return fingerprint(t, pr.Machine)
	}

	refPr := prep(t, cfg)
	refFP := finish(refPr)

	pr := prep(t, cfg)
	pauseMid(t, pr, refPr.Machine.MaxClock()/2)
	s, err := snap.Capture(pr.Machine, pr.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(finish(pr), refFP) {
		t.Fatalf("resumed faulted run diverged from uninterrupted run")
	}
	m, k, err := s.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	rpr, err := workloads.Resume(pr.W, pr.Mode, m, k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(finish(rpr), refFP) {
		t.Fatalf("restored faulted run diverged from uninterrupted run")
	}
}

// TestForkFaultPlanOverrideCount: fault.injected is the attached plan's
// count. A mid-run image carries the captured plan's injections in its
// registry; a fork that replaces the plan publishes the new plan's
// count, and a fork that removes it publishes 0 — never the discarded
// plan's.
func TestForkFaultPlanOverrideCount(t *testing.T) {
	cfg := testCfg(t)
	cfg.Fault = fault.Uniform(12345, 300, fault.TLBFlush)
	ref, _ := refRun(t, cfg)

	pr := prep(t, cfg)
	pauseMid(t, pr, ref.Cycles/2)
	if pr.Machine.FaultPlan().Total() == 0 {
		t.Fatal("no injection before the pause")
	}
	s, err := snap.Capture(pr.Machine, pr.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		plan fault.Config
	}{
		{"replaced", fault.Uniform(777, 400, fault.TLBFlush)},
		{"removed", fault.Config{}},
	} {
		m, k, err := s.Fork(func(c *core.Config) { c.Fault = tc.plan })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fpr, err := workloads.Resume(pr.W, pr.Mode, m, k)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := fpr.Run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var want uint64
		if plan := m.FaultPlan(); plan != nil {
			want = plan.Total()
			if want == 0 {
				t.Fatalf("%s: the new plan injected nothing", tc.name)
			}
		}
		if got := m.Obs.Metrics.CounterValue(obs.MFaultInjected); got != want {
			t.Errorf("%s: fault.injected = %d, the run's plan counted %d", tc.name, got, want)
		}
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	cfg := testCfg(t)
	ref, refFP := refRun(t, cfg)

	pr := prep(t, cfg)
	pauseMid(t, pr, ref.Cycles/2)
	s, err := snap.Capture(pr.Machine, pr.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mid.snap")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := snap.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, k, err := loaded.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	rpr, err := workloads.Resume(pr.W, pr.Mode, m, k)
	if err != nil {
		t.Fatal(err)
	}
	res, fp := mustRun(t, rpr)
	if res.Checksum != ref.Checksum || !bytes.Equal(fp, refFP) {
		t.Fatalf("file round-trip run diverged from uninterrupted run")
	}
}

// TestCaptureSizeIndependentOfPhysMem: an image holds what the run
// wrote, nothing derived from the configured memory, so the prepared
// gauss image (small, MISP 1x8) has one length at every PhysMem.
func TestCaptureSizeIndependentOfPhysMem(t *testing.T) {
	w, err := workloads.ByName("gauss")
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[uint64]int{}
	for _, physMem := range []uint64{32 << 20, 128 << 20, 1 << 30} {
		cfg := workloads.DefaultConfig(core.Topology{7})
		cfg.PhysMem = physMem
		pr, err := workloads.Prepare(w, shredlib.ModeShred, cfg, workloads.SizeSmall)
		if err != nil {
			t.Fatal(err)
		}
		sizes[physMem] = len(capture(t, pr.Machine, pr.Kernel))
		pr.Release()
	}
	if sizes[32<<20] != sizes[128<<20] || sizes[32<<20] != sizes[1<<30] {
		t.Fatalf("prepared image length by PhysMem = %v, want one length", sizes)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := snap.Load([]byte("definitely not a snapshot")); err == nil {
		t.Fatal("Load accepted garbage")
	}
	if _, err := snap.Load(nil); err == nil {
		t.Fatal("Load accepted empty input")
	}
	// A stale format version behind the current magic — 3 is the layout
	// that still carried the two loop knobs, 4 the one that still carried
	// the cost model, 5 the one that still carried the event buffer's cap
	// and loss policy, 6 the one that still carried the verbatim free
	// stack — gets the version error, not a decode attempt.
	for _, v := range []byte{2, 3, 4, 5, 6} {
		_, err := snap.Load(append([]byte(snap.Magic), v, 0, 0, 0))
		if want := fmt.Sprintf("format version %d", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Load of a version-%d header: err = %v, want the format-version error", v, err)
		}
	}
}

// TestLoadRejectsHugeCounts: a count is trusted no further than the
// bytes left. Each crafted section — an event bus claiming 2^24 events,
// a fault plan claiming 2^24 log records — is all header and no
// elements; decoding it must fail without allocating for the elements
// it promises (512 MiB and 384 MiB before counts were bounded).
func TestLoadRejectsHugeCounts(t *testing.T) {
	le := binary.LittleEndian
	bus := []byte{1}                                          // enabled
	bus = append(bus, make([]byte, 8+8*int(obs.NumKinds))...) // dropped, kind counts
	bus = le.AppendUint64(bus, 1<<24)                         // events

	plan := le.AppendUint64(nil, 1)   // seed
	plan = le.AppendUint64(plan, 100) // Period[SignalDrop]: the plan is enabled
	plan = append(plan, make([]byte, 8*(2*int(fault.NumKinds)-1)+16+8*(3*int(fault.NumKinds)+1))...)
	plan = le.AppendUint64(plan, 1<<24) // log records

	for name, tc := range map[string]struct {
		section []byte
		size    int
		decode  func(*wire.Codec)
	}{
		"bus":  {bus, 161, obs.NewBus(false).Snapshot},
		"plan": {plan, 400, new(fault.Plan).Snapshot},
	} {
		if len(tc.section) != tc.size {
			t.Fatalf("%s: crafted section is %d bytes, want %d", name, len(tc.section), tc.size)
		}
		c := wire.NewDecoder(tc.section)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tc.decode(c)
		runtime.ReadMemStats(&after)
		if c.Err() == nil {
			t.Errorf("%s: a count past the end of the section decoded without error", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: rejecting a %d-byte section allocated %d bytes", name, len(tc.section), n)
		}
	}
}
