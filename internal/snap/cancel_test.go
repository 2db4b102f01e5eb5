package snap_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"misp/internal/core"
	"misp/internal/shredlib"
	"misp/internal/snap"
	"misp/internal/workloads"
)

// TestCaptureAfterCancel holds the contract a preempted serve lease
// leans on: a run stopped by its context's cancel is stopped on an
// instruction boundary and can be captured like a paused one. Each point
// runs uninterrupted once, then is canceled at spread wall-clock
// offsets, captured, forked and run to completion: cycles, instructions,
// checksum and the fingerprint (per-sequencer counters, the full metrics
// registry, the event stream) must equal the uninterrupted run's. A
// cancel that lands after the run finished is compared as it stands; at
// least one must land mid-run, after the first instruction, or the test
// proves nothing.
func TestCaptureAfterCancel(t *testing.T) {
	apps := []string{"gauss", "swim", "raytracer", "dense_mmm"}
	tops := []struct {
		name string
		top  core.Topology
	}{
		{"misp-1x8", core.Topology{7}},
		{"smp-8", make(core.Topology, 8)},
		{"misp-2x4", core.Topology{3, 3}},
	}
	modes := []shredlib.Mode{shredlib.ModeShred, shredlib.ModeThread}
	offsets := []time.Duration{0, 100 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond}

	midRun := 0
	for _, app := range apps {
		w, err := workloads.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range tops {
			for _, mode := range modes {
				cfg := workloads.DefaultConfig(tp.top)
				cfg.PhysMem = 32 << 20
				cfg.TraceEvents = true
				prepare := func() *workloads.Prepared {
					pr, err := workloads.Prepare(w, mode, cfg, workloads.SizeTest)
					if err != nil {
						t.Fatal(err)
					}
					return pr
				}
				name := fmt.Sprintf("%s/%s/%s", app, tp.name, mode)
				ref := prepare()
				refRes, refFP := mustRun(t, ref)
				ref.Release()

				for _, off := range offsets {
					pr := prepare()
					steps := pr.Machine.Steps
					ctx, cancel := context.WithCancel(context.Background())
					stop := time.AfterFunc(off, cancel)
					res, err := pr.RunCtx(ctx)
					stop.Stop()
					cancel()
					if err != nil {
						if !errors.Is(err, context.Canceled) {
							t.Fatalf("%s at %v: %v", name, off, err)
						}
						if pr.Machine.Steps > steps {
							midRun++
						}
						img, cerr := snap.Capture(pr.Machine, pr.Kernel)
						if cerr != nil {
							t.Fatalf("%s at %v: capture after cancel: %v", name, off, cerr)
						}
						pr.Release()
						m, k, ferr := img.Fork(nil)
						if ferr != nil {
							t.Fatalf("%s at %v: fork: %v", name, off, ferr)
						}
						if pr, err = workloads.Resume(w, mode, m, k); err != nil {
							t.Fatal(err)
						}
						if res, err = pr.Run(); err != nil {
							t.Fatalf("%s at %v: resumed run: %v", name, off, err)
						}
					}
					fp := fingerprint(t, pr.Machine)
					if res.Cycles != refRes.Cycles || res.Machine.Steps != refRes.Machine.Steps || res.Checksum != refRes.Checksum {
						t.Fatalf("%s at %v: (%d cy, %d instrs, %g), want (%d cy, %d instrs, %g)", name, off,
							res.Cycles, res.Machine.Steps, res.Checksum, refRes.Cycles, refRes.Machine.Steps, refRes.Checksum)
					}
					if !bytes.Equal(fp, refFP) {
						t.Fatalf("%s at %v: fingerprint (counters, metrics, events) diverged from the uninterrupted run", name, off)
					}
					pr.Release()
				}
			}
		}
	}
	if midRun == 0 {
		t.Fatal("no cancel landed mid-run: every point finished or was canceled before its first instruction")
	}
	t.Logf("%d of %d cancels landed mid-run", midRun, len(apps)*len(tops)*len(modes)*len(offsets))
}
