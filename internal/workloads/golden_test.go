package workloads

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false,
	"rewrite testdata/golden_counters.txt from this build (only for a deliberate change to the machine model)")

const goldenCountersPath = "testdata/golden_counters.txt"

// TestGoldenCounters pins what the simulator computes, as opposed to how
// fast: every evaluated app on the three configurations exp.Evaluate
// compares, at test size, must retire exactly the recorded number of
// instructions (Machine.Steps) in exactly the recorded number of cycles
// (MaxClock). make equivgrid holds the fast loop to the legacy loop;
// this holds both to the committed history, so a change that moves the
// two loops together still shows.
func TestGoldenCounters(t *testing.T) {
	shapes := gridShapes[:3]
	got := make([]string, len(Evaluated())*len(shapes))
	t.Run("run", func(t *testing.T) {
		for i, w := range Evaluated() {
			for j, s := range shapes {
				t.Run(w.Name+"/"+s.label, func(t *testing.T) {
					t.Parallel()
					r, err := Run(w, s.mode, DefaultConfig(s.top), SizeTest)
					if err != nil {
						t.Fatal(err)
					}
					defer r.Release()
					got[i*len(shapes)+j] = fmt.Sprintf("%s %s %d %d", w.Name, s.label, r.Machine.Steps, r.Machine.MaxClock())
				})
			}
		}
	})
	if t.Failed() {
		return
	}
	if *updateGolden {
		out := "# app shape instructions cycles (-size test); rewrite with: go test ./internal/workloads -run TestGoldenCounters -update\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(goldenCountersPath, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenCountersPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")[1:] // drop the header
	if len(want) != len(got) {
		t.Fatalf("%s has %d points, this build ran %d", goldenCountersPath, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("app shape instructions cycles:\n want %s\n  got %s", want[i], got[i])
		}
	}
}
