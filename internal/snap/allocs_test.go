package snap_test

import (
	"testing"

	"misp/internal/snap"
)

// forkAllocs is the allocation count of one released fork (below), what
// a served run pays to resume from its checkpoint image; lower it when
// the count drops, and say why when it has to rise.
const forkAllocs = 374

// TestForkAllocs holds one released Snapshot.Fork of gauss (small, MISP
// 1x8, 128 MiB) paused mid-run — BenchmarkFork's physmem=128MiB/released
// row — to exactly forkAllocs allocations.
func TestForkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	pr := benchMachine(t, 128<<20)
	defer pr.Release()
	img, err := snap.Capture(pr.Machine, pr.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		m, _, err := img.Fork(nil)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
	})
	if got != forkAllocs {
		t.Fatalf("a released fork made %v allocations, want %d", got, forkAllocs)
	}
}

// captureAllocs is the allocation count of one capture (below), what a
// served run pays at each checkpoint; the same at every configured
// memory size.
const captureAllocs = 40

// TestCaptureAllocs holds one Capture of gauss (small, MISP 1x8,
// 128 MiB) paused mid-run — BenchmarkCapture's physmem=128MiB row — to
// exactly captureAllocs allocations.
func TestCaptureAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	pr := benchMachine(t, 128<<20)
	defer pr.Release()
	got := testing.AllocsPerRun(20, func() {
		if _, err := snap.Capture(pr.Machine, pr.Kernel); err != nil {
			t.Fatal(err)
		}
	})
	if got != captureAllocs {
		t.Fatalf("a capture made %v allocations, want %d", got, captureAllocs)
	}
}
