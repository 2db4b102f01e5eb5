package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"testing"

	"misp/internal/core"
	"misp/internal/mem"
	"misp/internal/shredlib"
)

var equivGrid = flag.Bool("equivgrid", false,
	"run TestEquivGrid (make equivgrid): fast loop vs legacy oracle on every evaluated app x five machine shapes at small size, plus galgel, raytracer and gauss at ref and raytracer, gauss and swim on MISP 1x24")

// gridShapes are the machine shapes the whole-application tests run on:
// the three configurations exp.Evaluate compares (one sequencer, one
// 8-sequencer MISP processor, an 8-way SMP in thread mode), then MISP
// 1x4 and a 4-way SMP in thread mode — with SMP 8, the thread shapes the
// serve plane's runs use.
var gridShapes = []struct {
	label string
	mode  shredlib.Mode
	top   core.Topology
}{
	{"1P", shredlib.ModeShred, core.Topology{0}},
	{"MISP-1x8", shredlib.ModeShred, core.Topology{7}},
	{"SMP-8", shredlib.ModeThread, make(core.Topology, 8)},
	{"MISP-1x4", shredlib.ModeShred, core.Topology{3}},
	{"SMP-4", shredlib.ModeThread, make(core.Topology, 4)},
}

// TestEquivGrid holds the fast loop to the legacy oracle on whole
// applications: 16 apps x {1P, MISP 1x8, SMP 8, MISP 1x4, SMP 4} at small
// size, comparing retired instructions, cycles, every sequencer's clock,
// retirement count and TLB hits/misses/perm-misses, and every resident
// physical frame's bytes. Three named extra
// points run at ref size on MISP 1x8. galgel is the one run that has twice
// diverged (PROXYEXEC's fetch window; a wrong cohort-wave variant off by
// 849 instructions) while every test-size difftest in internal/core
// still passed. raytracer and gauss are the two behaviours that stay
// inside the wave since issue 22: raytracer retires the most seqid (44 487
// of 6.2 M instructions) and gauss the most acas + aadd (1 814 of 3.5 M).
// Three more run at small size on MISP 1x24 — raytracer, gauss and swim —
// where one cohort wave holds 24 members. Too slow for the default suite, so it sits behind a flag.
func TestEquivGrid(t *testing.T) {
	if !*equivGrid {
		t.Skip("-equivgrid not set")
	}
	for _, w := range Evaluated() {
		for _, s := range gridShapes {
			t.Run(w.Name+"/"+s.label+"/small", func(t *testing.T) {
				t.Parallel()
				equivPoint(t, w, s.mode, s.top, SizeSmall)
			})
		}
	}
	for _, p := range []struct {
		name, label string
		top         core.Topology
		sz          Size
	}{
		{"galgel", "MISP-1x8", core.Topology{7}, SizeRef},
		{"raytracer", "MISP-1x8", core.Topology{7}, SizeRef},
		{"gauss", "MISP-1x8", core.Topology{7}, SizeRef},
		{"raytracer", "MISP-1x24", core.Topology{23}, SizeSmall},
		{"gauss", "MISP-1x24", core.Topology{23}, SizeSmall},
		{"swim", "MISP-1x24", core.Topology{23}, SizeSmall},
	} {
		t.Run(p.name+"/"+p.label+"/"+p.sz.String(), func(t *testing.T) {
			t.Parallel()
			w, err := ByName(p.name)
			if err != nil {
				t.Fatal(err)
			}
			equivPoint(t, w, shredlib.ModeShred, p.top, p.sz)
		})
	}
}

// equivPoint runs one grid point on both loops and compares the exact
// counters and a digest of memory: a store the fast loop makes in the
// wrong place or with the wrong value fails here even when every counter
// agrees.
func equivPoint(t *testing.T, w *Workload, mode shredlib.Mode, top core.Topology, sz Size) {
	var res [2]*RunResult
	for i, legacy := range []bool{false, true} {
		pr, err := Prepare(w, mode, DefaultConfig(top), sz)
		if err != nil {
			t.Fatalf("legacy=%v: %v", legacy, err)
		}
		defer pr.Release()
		pr.Machine.Oracle = legacy
		if res[i], err = pr.Run(); err != nil {
			t.Fatalf("legacy=%v: %v", legacy, err)
		}
	}
	fast, legacy := res[0].Machine, res[1].Machine
	if fast.Steps != legacy.Steps || fast.MaxClock() != legacy.MaxClock() || res[0].Cycles != res[1].Cycles {
		t.Errorf("fast %d instrs / %d cycles (process %d), legacy %d / %d (process %d)",
			fast.Steps, fast.MaxClock(), res[0].Cycles, legacy.Steps, legacy.MaxClock(), res[1].Cycles)
	}
	for i, sf := range fast.Seqs {
		sl := legacy.Seqs[i]
		if sf.Clock != sl.Clock || sf.C.Instrs != sl.C.Instrs {
			t.Errorf("%s: fast clock %d instrs %d, legacy clock %d instrs %d",
				sf.Name(), sf.Clock, sf.C.Instrs, sl.Clock, sl.C.Instrs)
		}
		tf := [3]uint64{sf.TLB.Hits, sf.TLB.Misses, sf.TLB.PermMisses}
		tl := [3]uint64{sl.TLB.Hits, sl.TLB.Misses, sl.TLB.PermMisses}
		if tf != tl {
			t.Errorf("%s: TLB hits/misses/perm-misses fast %v, legacy %v", sf.Name(), tf, tl)
		}
	}
	if physDigest(fast.Phys) != physDigest(legacy.Phys) {
		t.Error("the resident physical frames differ")
	}
}

// physDigest hashes every resident frame: its number and its bytes.
func physDigest(p *mem.Phys) [sha256.Size]byte {
	h := sha256.New()
	for _, f := range p.Resident() {
		binary.Write(h, binary.LittleEndian, f)
		h.Write(p.Bytes(uint64(f)<<mem.PageShift, mem.PageSize))
	}
	return [sha256.Size]byte(h.Sum(nil))
}
