package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"misp/internal/asm"
	"misp/internal/obs"
	"misp/internal/shredlib"
)

var updateGolden = flag.Bool("update", false,
	"rewrite the testdata/golden_*.txt file of each golden test that runs from this build (only for a deliberate change to what it pins)")

const (
	goldenCountersPath = "testdata/golden_counters.txt"
	goldenProgramsPath = "testdata/golden_programs.txt"
)

// checkGolden compares got, one point per line, with the file at path
// (whose first line is a header), or rewrites the file under -update.
func checkGolden(t *testing.T, path, header string, got []string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(header+"\n"+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")[1:] // drop the header
	if len(want) != len(got) {
		t.Fatalf("%s has %d points, this build made %d", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s:\n want %s\n  got %s", path, want[i], got[i])
		}
	}
}

// programDigest is a SHA-256 over everything the loader reads from a
// program: both segment bases, the BSS size, the entry point, the text
// and data images, and the symbol table in name order.
func programDigest(p *asm.Program) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range []uint64{p.TextBase, p.DataBase, p.BSS, p.Entry, uint64(len(p.Text)), uint64(len(p.Data))} {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write(p.Text)
	h.Write(p.Data)
	names := make([]string, 0, len(p.Symbols))
	for name := range p.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%#x\n", name, p.Symbols[name])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// recovered runs f and turns a panic into its value, so one broken
// point fails by its name instead of ending the test binary.
func recovered(f func() string) (s string) {
	defer func() {
		if r := recover(); r != nil {
			s = fmt.Sprintf("panic: %v", r)
		}
	}()
	return f()
}

// TestGoldenPrograms pins what each workload generates, before anything
// runs: every program (17 workloads x both runtime modes x test, small
// and ref x no extra flags, FlagProbePages and FlagNoMP) by its digest,
// and every Go reference checksum by its float64 bit pattern. A change
// to how a workload is written must leave all of them alone; a change
// to what a workload computes rewrites the file with -update and says so.
func TestGoldenPrograms(t *testing.T) {
	sizes := []Size{SizeTest, SizeSmall, SizeRef}
	var got []string
	for _, w := range All() {
		for _, mode := range []shredlib.Mode{shredlib.ModeShred, shredlib.ModeThread} {
			for _, sz := range sizes {
				for _, extra := range []int64{0, shredlib.FlagProbePages, shredlib.FlagNoMP} {
					d := recovered(func() string { return programDigest(w.BuildFlags(mode, sz, extra)) })
					got = append(got, fmt.Sprintf("prog %s %s %s %d %s", w.Name, mode, sz, extra, d))
				}
			}
		}
	}
	for _, w := range All() {
		for _, sz := range sizes {
			bits := recovered(func() string { return fmt.Sprintf("%016x", math.Float64bits(w.Ref(sz))) })
			got = append(got, fmt.Sprintf("ref %s %s %s", w.Name, sz, bits))
		}
	}
	checkGolden(t, goldenProgramsPath,
		"# prog app mode size extra sha256 | ref app size float64-bits; rewrite with: go test ./internal/workloads -run TestGoldenPrograms -update",
		got)
}

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
					// The cycle ledger closes: its parts fit in the total, so
					// the published user remainder is never clamped to 0.
					reg := r.Machine.Obs.Metrics
					var parts uint64
					for _, name := range []string{obs.MCyclesPriv, obs.MCyclesIdle, obs.MCyclesRingStall, obs.MCyclesProxyStall} {
						parts += reg.CounterValue(name)
					}
					if total := reg.CounterValue(obs.MCyclesTotal); total == 0 || parts > total {
						t.Errorf("the cycle ledger's parts sum to %d, cycles.total is %d", parts, total)
					}
				})
			}
		}
	})
	if t.Failed() {
		return
	}
	checkGolden(t, goldenCountersPath,
		"# app shape instructions cycles (-size test); rewrite with: go test ./internal/workloads -run TestGoldenCounters -update",
		got)
}

// TestHostCountsExact holds the fast loop's host-side work on two fixed
// runs to exact values: the counted-spin skips and what they retired, the
// fixed-point skips' retirements and the pages compiled. Each count is
// deterministic, and none is in a dump or an artifact, so the goldens
// above cannot see a change that silently loses a skip or recompiles
// more; this fails on one. swim and equake on SMP 8 at small size spend
// the most of their run-ahead work in the runtime's spin-then-yield idle
// loop. A change that means to move a count updates its row here.
func TestHostCountsExact(t *testing.T) {
	for _, row := range []struct {
		app                                         string
		countSkips, countInstrs, spinInstrs, builds uint64
	}{
		{"swim", 1529, 3375174, 114, 3},
		{"equake", 970, 2780656, 66, 3},
	} {
		w, err := ByName(row.app)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(w, shredlib.ModeThread, DefaultConfig(gridShapes[2].top), SizeSmall)
		if err != nil {
			t.Fatal(err)
		}
		reg := r.Machine.Obs.Metrics
		got := [4]uint64{reg.CounterValue(obs.MSBCountSkips), reg.CounterValue(obs.MSBCountInstrs),
			reg.CounterValue(obs.MSBSpinInstrs), reg.CounterValue(obs.MSBBuilds)}
		if want := [4]uint64{row.countSkips, row.countInstrs, row.spinInstrs, row.builds}; got != want {
			t.Errorf("%s SMP-8 small: count_skips, count_instrs, spin_instrs, builds = %v, want %v", row.app, got, want)
		}
		r.Release()
	}
}
