package exp

import (
	"flag"
	"os"
	"testing"

	"misp/internal/workloads"
)

var updateGolden = flag.Bool("update", false,
	"rewrite testdata/golden_resilience.csv from this build (only for a deliberate change to what a fault campaign computes)")

const goldenResiliencePath = "testdata/golden_resilience.csv"

// TestResilienceGolden pins the resilience sweep at test size with
// three seeds per cell — the table mispbench -exp resilience
// -faultseeds 3 writes: every cell's outcomes, its injected, detected
// and recovered counts, its overhead and its mean recovery latency. It
// is computed serially and on every host core, each through its own
// warm pool, and both must equal the committed CSV byte for byte.
func TestResilienceGolden(t *testing.T) {
	var got []string
	for _, parallel := range []int{1, 0} {
		rows, err := Resilience(Options{Size: workloads.SizeTest, Parallel: parallel, Warm: workloads.NewWarmPool()}, 3)
		if err != nil {
			t.Fatalf("parallel %d: %v", parallel, err)
		}
		got = append(got, ResilienceTable(rows).CSV())
	}
	if *updateGolden {
		if err := os.WriteFile(goldenResiliencePath, []byte(got[0]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenResiliencePath)
	if err != nil {
		t.Fatal(err)
	}
	for i, parallel := range []int{1, 0} {
		if got[i] != string(want) {
			t.Errorf("parallel %d: resilience CSV moved\nwant\n%s\ngot\n%s", parallel, want, got[i])
		}
	}
}
