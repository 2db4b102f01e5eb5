package workloads

import (
	"testing"

	"misp/internal/core"
	"misp/internal/obs"
	"misp/internal/shredlib"
)

// TestBackingBytes: no evaluated application at ref size on MISP 1x8
// reaches a frame beyond the initial 4 MiB backing, so
// host.mem.backing_bytes stays there, and the legacy loop — which
// reaches memory through the same page walks — reports the same value.
func TestBackingBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine runs, two minutes under the race detector")
	}
	const initial = 4 << 20
	for _, w := range Evaluated() {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var backed [2]uint64
			for i, legacy := range []bool{false, true} {
				pr, err := Prepare(w, shredlib.ModeShred, DefaultConfig(core.Topology{7}), SizeRef)
				if err != nil {
					t.Fatal(err)
				}
				pr.Machine.Oracle = legacy
				res, err := pr.Run()
				if err != nil {
					t.Fatalf("legacy=%v: %v", legacy, err)
				}
				backed[i] = res.Machine.Obs.Metrics.CounterValue(obs.MMemBacking)
				res.Release()
			}
			if backed[0] == 0 || backed[0] > initial {
				t.Errorf("%s = %d bytes, want 1..%d", obs.MMemBacking, backed[0], initial)
			}
			if backed[0] != backed[1] {
				t.Errorf("%s: fast loop %d bytes, legacy loop %d", obs.MMemBacking, backed[0], backed[1])
			}
		})
	}
}
