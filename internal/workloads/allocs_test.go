package workloads

import (
	"testing"

	"misp/internal/core"
	"misp/internal/shredlib"
)

// prepareAllocs is the allocation count of one released cold prepare
// (below), what a served run pays before its first cycle when it has no
// checkpoint image to fork; lower it when the count drops, and say why
// when it has to rise.
const prepareAllocs = 421

// TestPrepareAllocs holds one released PrepareFlags of gauss (small,
// MISP 1x8, 128 MiB) — BenchmarkPrepare's physmem=128MiB/released row —
// to exactly prepareAllocs allocations.
func TestPrepareAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	w, err := ByName("gauss")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(core.Topology{7})
	cfg.PhysMem = 128 << 20
	got := testing.AllocsPerRun(20, func() {
		pr, err := PrepareFlags(w, shredlib.ModeShred, cfg, SizeSmall, 0)
		if err != nil {
			t.Fatal(err)
		}
		pr.Release()
	})
	if got != prepareAllocs {
		t.Fatalf("a released prepare made %v allocations, want %d", got, prepareAllocs)
	}
}
