package workloads

import (
	"math"
	"sync"
	"testing"

	"misp/internal/core"
	"misp/internal/shredlib"
)

func testConfig(top core.Topology) core.Config {
	cfg := DefaultConfig(top)
	cfg.PhysMem = 64 << 20
	cfg.MaxCycles = 8_000_000_000
	return cfg
}

// verify runs w at SizeTest on 1P (shred), MISP 1x4 (shred) and SMP 4
// (thread) and checks every result against the Go reference and each
// other.
func verify(t *testing.T, name string) {
	t.Helper()
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	want := w.Ref(SizeTest)

	configs := []struct {
		label string
		mode  shredlib.Mode
		top   core.Topology
	}{
		{"1P", shredlib.ModeShred, core.Topology{0}},
		{"MISP-1x4", shredlib.ModeShred, core.Topology{3}},
		{"SMP-4", shredlib.ModeThread, core.Topology{0, 0, 0, 0}},
	}
	var results []float64
	for _, c := range configs {
		res, err := Run(w, c.mode, testConfig(c.top), SizeTest)
		if err != nil {
			t.Fatalf("%s on %s: %v", name, c.label, err)
		}
		if res.Checksum != want {
			t.Fatalf("%s on %s: checksum %g, reference %g", name, c.label, res.Checksum, want)
		}
		results = append(results, res.Checksum)
	}
	// Cross-configuration determinism: all three runs must agree
	// exactly (chunk-local accumulation + serial reduce is
	// schedule-independent).
	if results[0] != results[1] || results[1] != results[2] {
		t.Fatalf("%s: results differ across configs: %v", name, results)
	}
}

func TestDenseMMM(t *testing.T)    { verify(t, "dense_mmm") }
func TestDenseMVM(t *testing.T)    { verify(t, "dense_mvm") }
func TestDenseMVMSym(t *testing.T) { verify(t, "dense_mvm_sym") }
func TestADAt(t *testing.T)        { verify(t, "ADAt") }
func TestGauss(t *testing.T)       { verify(t, "gauss") }
func TestKmeans(t *testing.T)      { verify(t, "kmeans") }

func TestSparseMVM(t *testing.T)      { verify(t, "sparse_mvm") }
func TestSparseMVMSym(t *testing.T)   { verify(t, "sparse_mvm_sym") }
func TestSparseMVMTrans(t *testing.T) { verify(t, "sparse_mvm_trans") }

func TestSVMC(t *testing.T)      { verify(t, "svm_c") }
func TestRaytracer(t *testing.T) { verify(t, "raytracer") }

func TestSwim(t *testing.T)   { verify(t, "swim") }
func TestApplu(t *testing.T)  { verify(t, "applu") }
func TestGalgel(t *testing.T) { verify(t, "galgel") }
func TestEquake(t *testing.T) { verify(t, "equake") }
func TestArt(t *testing.T)    { verify(t, "art") }
func TestSpin(t *testing.T)   { verify(t, "spin") }

func TestRegistryComplete(t *testing.T) {
	if n := len(All()); n != 17 {
		t.Fatalf("registry has %d workloads, want 17", n)
	}
	if n := len(Evaluated()); n != 16 {
		t.Fatalf("Evaluated has %d workloads, want 16", n)
	}
	names := []string{}
	for _, w := range Evaluated() {
		names = append(names, w.Name)
	}
	// Figure 4 order: RMS suite then SPEComp.
	if names[0] != "ADAt" || names[10] != "raytracer" || names[11] != "swim" || names[15] != "art" {
		t.Fatalf("wrong order: %v", names)
	}
}

// TestAllWorkloadsOnMISPMultiprocessor runs every evaluated workload at
// test size on a 2x3 MISP MP (two processors, shared work queue across
// OS threads) and validates the checksums — the strongest integration
// test of the whole stack: MP runtime claiming, proxy execution on two
// OMSs, and cross-processor gang scheduling for every kernel.
func TestAllWorkloadsOnMISPMultiprocessor(t *testing.T) {
	for _, w := range Evaluated() {
		res, err := Run(w, shredlib.ModeShred, testConfig(core.Topology{2, 2}), SizeTest)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		want := w.Ref(SizeTest)
		if res.Checksum != want {
			t.Fatalf("%s: checksum %g != reference %g", w.Name, res.Checksum, want)
		}
		// Both processors' AMSs must have participated.
		for _, proc := range res.Machine.Procs {
			var instrs uint64
			for _, a := range proc.AMSs() {
				instrs += a.C.Instrs
			}
			if instrs == 0 {
				t.Errorf("%s: processor %d AMSs idle throughout", w.Name, proc.ID)
			}
		}
	}
}

// TestRefComputedOnce: Ref remembers each size's checksum. Concurrent
// first callers (the sweep's workers) all get one value, a later call
// returns the identical bits, and a remembered call allocates nothing.
func TestRefComputedOnce(t *testing.T) {
	for _, w := range All() {
		for _, sz := range []Size{SizeTest, SizeSmall, SizeRef} {
			var got [8]uint64
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = math.Float64bits(w.Ref(sz))
				}()
			}
			wg.Wait()
			for i, bits := range got {
				if bits != got[0] {
					t.Fatalf("%s %s: concurrent caller %d got %016x, caller 0 %016x", w.Name, sz, i, bits, got[0])
				}
			}
			if again := math.Float64bits(w.Ref(sz)); again != got[0] {
				t.Fatalf("%s %s: second call %016x, first %016x", w.Name, sz, again, got[0])
			}
			if n := testing.AllocsPerRun(5, func() { w.Ref(sz) }); n != 0 {
				t.Errorf("%s %s: a remembered Ref allocates %.0f times", w.Name, sz, n)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Ref past the size table did not panic")
		}
	}()
	All()[0].Ref(numSizes)
}

func TestParseSize(t *testing.T) {
	for _, sz := range []Size{SizeTest, SizeSmall, SizeRef} {
		if got, err := ParseSize(sz.String()); err != nil || got != sz {
			t.Errorf("ParseSize(%q) = %v, %v", sz, got, err)
		}
	}
	for _, bad := range []string{"", "huge", "ref,"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) accepted an unknown size", bad)
		}
	}
	// A size past the table names no preset.
	out := Size(numSizes).String()
	if _, err := ParseSize(out); out == "ref" || err == nil {
		t.Errorf("Size(numSizes) reads as %q, a preset name", out)
	}
}
