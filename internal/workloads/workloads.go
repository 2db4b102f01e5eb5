// Package workloads implements the paper's evaluation programs: the
// eleven RMS kernels (§5.2: ADAt, dense_mmm, dense_mvm, dense_mvm_sym,
// gauss, kmeans, sparse_mvm, sparse_mvm_sym, sparse_mvm_trans, svm_c,
// RayTracer) and behaviour-equivalent analogs of the five SPEComp
// applications (swim, applu, galgel, equake, art), plus the
// single-threaded `spin` load generator used by the Figure 7
// multiprogramming experiment.
//
// Every workload is generated as SVM-32 assembly against the rt_*
// runtime API, so the identical workload code links against ShredLib
// (MISP shreds) or threadlib (OS threads) — see internal/shredlib.
// Each workload stores a float64 checksum at shredlib.ResultAddr and
// returns its truncation as the process exit code; a Go reference
// implementation (mirroring loop structure and arithmetic order)
// validates results. The references round every product with an
// explicit float64(...) conversion, which forbids the compiler to fuse
// it into an add (arm64 would, amd64 does not), so a reference, and the
// raytracer scene written into the program, are the same bits on every
// host; make fmacheck enforces it.
package workloads

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"misp/internal/asm"
	"misp/internal/shredlib"
)

// Size selects a problem-size preset.
type Size int

const (
	// SizeTest keeps unit tests fast (sub-second runs).
	SizeTest Size = iota
	// SizeSmall is the default experiment size.
	SizeSmall
	// SizeRef is the benchmark-harness size (longer runs, clearer
	// parallel sections).
	SizeRef
	numSizes
)

// sizeNames names each preset. A new size is a constant before
// numSizes, its name here, and one row in every workload's table.
var sizeNames = [numSizes]string{"test", "small", "ref"}

func (s Size) String() string {
	if s >= 0 && s < numSizes {
		return sizeNames[s]
	}
	return fmt.Sprintf("Size(%d)", int(s))
}

// ParseSize is String's inverse: it maps a size name to its preset.
func ParseSize(s string) (Size, error) {
	for sz, name := range sizeNames {
		if name == s {
			return Size(sz), nil
		}
	}
	return 0, fmt.Errorf("unknown size %q (want %s)", s, strings.Join(sizeNames[:], ", "))
}

// Workload is one evaluation program.
type Workload struct {
	Name  string
	Suite string // "RMS" or "SPEComp"
	// BuildFlags generates the program for the given runtime mode and
	// size, OR-ing extra into the workload's own rt_init flags. The extra
	// flags are the experiment harness's ablation knob (e.g.
	// shredlib.FlagProbePages for the §5.3 page-probe study); passing them
	// explicitly — rather than through a package global — keeps program
	// construction free of shared mutable state, so independent runs can
	// build concurrently.
	BuildFlags func(mode shredlib.Mode, sz Size, extra int64) *asm.Program
	// Ref returns the reference checksum, computed by a mirrored Go
	// implementation on a size's first call and remembered after it.
	// Safe for concurrent callers.
	Ref func(sz Size) float64
}

// Build generates the program with no extra runtime flags.
func (w *Workload) Build(mode shredlib.Mode, sz Size) *asm.Program {
	return w.BuildFlags(mode, sz, 0)
}

// def declares one workload: its identity, one parameter row per Size,
// and two functions of a row — the emitter, which writes app_main and
// its kernels, and the Go reference that mirrors them.
type def[P comparable] struct {
	name, suite string
	// flags are the rt_init flags the program always passes (the SPEComp
	// analogs yield to the OS while idle, to model the OpenMP runtime's
	// OS interaction).
	flags int64
	bare  bool // no runtime or helpers: the program starts at main
	sizes [numSizes]P
	emit  func(b *asm.Builder, p P)
	ref   func(p P) float64
}

// iterParams, the most common row, is an n-point problem iterated t
// times in parfor chunks of grain points.
type iterParams struct{ n, t, grain int64 }

var registry = map[string]*Workload{}

// define registers d. It owns what every workload shares: the size
// lookup, the runtime and helper preamble (newProgram) with d's flags
// and the harness's extra ones, and the link.
func define[P comparable](d def[P]) *Workload {
	if _, dup := registry[d.name]; dup {
		panic("workloads: duplicate " + d.name)
	}
	row := func(sz Size) P {
		var zero P
		if sz < 0 || sz >= numSizes || d.sizes[sz] == zero {
			panic(fmt.Sprintf("workloads: %s has no %v parameters", d.name, sz))
		}
		return d.sizes[sz]
	}
	// A reference is a pure function of its row, and the evaluation and
	// the serve executor ask for the same one on every run: compute each
	// size's once.
	var refs [numSizes]func() float64
	for sz := range refs {
		refs[sz] = sync.OnceValue(func() float64 { return d.ref(row(Size(sz))) })
	}
	w := &Workload{
		Name:  d.name,
		Suite: d.suite,
		BuildFlags: func(mode shredlib.Mode, sz Size, extra int64) *asm.Program {
			p := row(sz)
			var b *asm.Builder
			if d.bare {
				b = asm.NewBuilder()
			} else {
				b = newProgram(mode, d.flags|extra)
			}
			d.emit(b, p)
			return b.MustBuild()
		},
		Ref: func(sz Size) float64 {
			row(sz) // a size without parameters panics here, every call
			return refs[sz]()
		},
	}
	registry[d.name] = w
	return w
}

// ByName returns a registered workload.
func ByName(name string) (*Workload, error) {
	w, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q", name)
	}
	return w, nil
}

// All returns every workload, RMS suite first, in the paper's Figure 4
// order.
func All() []*Workload {
	order := map[string]int{
		"ADAt": 0, "dense_mmm": 1, "dense_mvm": 2, "dense_mvm_sym": 3,
		"gauss": 4, "kmeans": 5, "sparse_mvm": 6, "sparse_mvm_sym": 7,
		"sparse_mvm_trans": 8, "svm_c": 9, "raytracer": 10,
		"swim": 11, "applu": 12, "galgel": 13, "equake": 14, "art": 15,
		"spin": 16,
	}
	var ws []*Workload
	for _, w := range registry {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool {
		oi, iok := order[ws[i].Name]
		oj, jok := order[ws[j].Name]
		if iok && jok {
			return oi < oj
		}
		if iok != jok {
			return iok
		}
		return ws[i].Name < ws[j].Name
	})
	return ws
}

// Evaluated returns the 16 workloads of Figure 4 (everything except the
// spin load generator).
func Evaluated() []*Workload {
	var ws []*Workload
	for _, w := range All() {
		if w.Name != "spin" {
			ws = append(ws, w)
		}
	}
	return ws
}

// --- deterministic pseudo-random input data ---------------------------

// LCG constants (Knuth MMIX), mirrored in the assembly emitters.
const (
	lcgMul = 6364136223846793005
	lcgAdd = 1442695040888963407
)

// lcg is the Go-side twin of the emitted generator.
type lcg struct{ x uint64 }

func (g *lcg) next() uint64 {
	g.x = g.x*lcgMul + lcgAdd
	return g.x
}

// f64 returns the next value in [0, 1).
func (g *lcg) f64() float64 {
	return float64(float64(g.next()>>11) * (1.0 / (1 << 53)))
}
