package core_test

import (
	"context"
	"testing"

	"misp/internal/core"
	"misp/internal/shredlib"
	"misp/internal/workloads"
)

// benchRun times Prepared.RunCtx alone (prepare and release sit outside
// the timer) and reports host nanoseconds per retired instruction, once
// with a cancelable context attached and once with a background one:
// the two must read the same, cancellation being one flag load per
// selection or ring rebase.
func benchRun(b *testing.B, top core.Topology, mode shredlib.Mode) {
	w, err := workloads.ByName("dense_mmm")
	if err != nil {
		b.Fatal(err)
	}
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{{"ctx=cancelable", cancelable}, {"ctx=background", context.Background()}} {
		b.Run(c.name, func(b *testing.B) {
			var instrs uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pr, err := workloads.Prepare(w, mode, workloads.DefaultConfig(top), workloads.SizeSmall)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := pr.RunCtx(c.ctx)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				instrs += res.Machine.Steps
				res.Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}
}

// BenchmarkCohortWave runs dense_mmm where runCohortWave retires nearly
// every instruction: eight lockstep shreds on one MISP processor, and
// eight OS threads on an 8-way SMP.
func BenchmarkCohortWave(b *testing.B) {
	b.Run("misp1x8", func(b *testing.B) { benchRun(b, core.Topology{7}, shredlib.ModeShred) })
	b.Run("smp8", func(b *testing.B) {
		benchRun(b, core.Topology{0, 0, 0, 0, 0, 0, 0, 0}, shredlib.ModeThread)
	})
}

// BenchmarkRunUops runs the same program on one sequencer, where
// runBatch/runUops retire everything: the same micro-op handlers
// without the wave's per-commit ordering, i.e. the floor the wave's
// bookkeeping is measured against.
func BenchmarkRunUops(b *testing.B) {
	benchRun(b, core.Topology{0}, shredlib.ModeShred)
}
