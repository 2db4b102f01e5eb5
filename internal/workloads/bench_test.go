package workloads

import (
	"fmt"
	"testing"

	"misp/internal/core"
	"misp/internal/shredlib"
)

// BenchmarkPrepare times a cold prepare — machine construction, kernel
// boot, program build and spawn — followed either by the release that
// lets the next prepare reuse the memory backing (released) or by
// nothing (unreleased: the machine is garbage, as a caller that never
// calls Release leaves it), at three configured memory sizes 32x apart. The work, and the resident frames it leaves, are the same
// at every size; so should ns/op be (see internal/snap's BenchmarkCapture
// and BenchmarkFork for the other two legs).
func BenchmarkPrepare(b *testing.B) {
	w, err := ByName("gauss")
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []uint64{32 << 20, 128 << 20, 1 << 30} {
		for _, release := range []bool{true, false} {
			row := "released"
			if !release {
				row = "unreleased"
			}
			b.Run(fmt.Sprintf("physmem=%dMiB/%s", size>>20, row), func(b *testing.B) {
				cfg := DefaultConfig(core.Topology{7})
				cfg.PhysMem = size
				var resident int
				prepare := func() {
					pr, err := PrepareFlags(w, shredlib.ModeShred, cfg, SizeSmall, 0)
					if err != nil {
						b.Fatal(err)
					}
					resident = len(pr.Machine.Phys.Resident())
					if release {
						pr.Release()
					}
				}
				prepare() // the first machine of a size has no released array to take
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					prepare()
				}
				b.ReportMetric(float64(resident), "resident_frames")
			})
		}
	}
}
