package snap_test

import (
	"errors"
	"fmt"
	"testing"

	"misp/internal/core"
	"misp/internal/shredlib"
	"misp/internal/snap"
	"misp/internal/workloads"
)

// The snapshot plane's cost must follow the frames a run has written,
// not Config.PhysMem. Each benchmark runs the same workload at three
// configured sizes 32x apart and reports the resident frames beside
// ns/op, so "flat in configured memory" is a number:
//
//	go test -run '^$' -bench 'Capture|Fork' -benchmem ./internal/snap

var benchPhysMem = []uint64{32 << 20, 128 << 20, 1 << 30}

// benchMachine prepares gauss (small, MISP 1x8) in physMem bytes and
// runs it to the middle of its run, where it has a few dozen resident
// frames.
func benchMachine(tb testing.TB, physMem uint64) *workloads.Prepared {
	tb.Helper()
	w, err := workloads.ByName("gauss")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := workloads.DefaultConfig(core.Topology{7})
	cfg.PhysMem = physMem
	prepare := func() *workloads.Prepared {
		pr, err := workloads.Prepare(w, shredlib.ModeShred, cfg, workloads.SizeSmall)
		if err != nil {
			tb.Fatal(err)
		}
		return pr
	}
	ref := prepare()
	if _, err := ref.Run(); err != nil {
		tb.Fatal(err)
	}
	mid := ref.Machine.MaxClock() / 2
	ref.Release()

	pr := prepare()
	pr.Machine.SetPause(mid)
	if err := pr.Machine.Run(); !errors.Is(err, core.ErrPaused) {
		tb.Fatalf("expected a pause at cycle %d, got %v", mid, err)
	}
	pr.Machine.SetPause(0)
	return pr
}

func forEachPhysMem(b *testing.B, fn func(b *testing.B, pr *workloads.Prepared)) {
	for _, size := range benchPhysMem {
		b.Run(fmt.Sprintf("physmem=%dMiB", size>>20), func(b *testing.B) {
			pr := benchMachine(b, size)
			defer pr.Release()
			b.ReportAllocs()
			b.ResetTimer()
			fn(b, pr)
			b.ReportMetric(float64(len(pr.Machine.Phys.Resident())), "resident_frames")
		})
	}
}

var sinkSnapshot *snap.Snapshot

func BenchmarkCapture(b *testing.B) {
	forEachPhysMem(b, func(b *testing.B, pr *workloads.Prepared) {
		for i := 0; i < b.N; i++ {
			s, err := snap.Capture(pr.Machine, pr.Kernel)
			if err != nil {
				b.Fatal(err)
			}
			sinkSnapshot = s
		}
	})
}

// BenchmarkFork times what a warm hit costs a grid in steady state:
// fork the image, then either release the machine for the next fork
// (released) or drop it as garbage (unreleased), as a caller that never
// calls Release does — the next fork then takes a fresh backing.
func BenchmarkFork(b *testing.B) {
	for _, size := range benchPhysMem {
		b.Run(fmt.Sprintf("physmem=%dMiB", size>>20), func(b *testing.B) {
			pr := benchMachine(b, size)
			defer pr.Release()
			img, err := snap.Capture(pr.Machine, pr.Kernel)
			if err != nil {
				b.Fatal(err)
			}
			for _, release := range []bool{true, false} {
				b.Run(releaseRow(release), func(b *testing.B) {
					fork := func() {
						m, _, err := img.Fork(nil)
						if err != nil {
							b.Fatal(err)
						}
						if release {
							m.Release()
						}
					}
					fork() // the first fork of a size has no released array to take
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						fork()
					}
					b.ReportMetric(float64(len(pr.Machine.Phys.Resident())), "resident_frames")
				})
			}
		})
	}
}

// releaseRow names a row by what becomes of each machine it builds.
func releaseRow(release bool) string {
	if release {
		return "released"
	}
	return "unreleased"
}
