//go:build linux

package main

import (
	"math/rand/v2"

	"misp/internal/serve"
	"misp/internal/workloads"
)

// Every input the program sees is generated here from -seed; the
// program itself never learns the seed. Streams are stratified so two
// seeds give the same work in a different order: medians and rates are
// then comparable across seeds, which is how the driver samples them.

// newRand returns the generator for one named stream of a seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

const (
	streamSim    = 1
	streamEval   = 2
	streamMiss   = 3
	streamReuse  = 4
	streamSample = 5 // which serve_miss ops get the byte-identity check
)

// evaluatedApps returns the first limit evaluated workloads (all 16 when
// limit <= 0). Only the self-test smoke passes a limit.
func evaluatedApps(limit int) []*workloads.Workload {
	ws := workloads.Evaluated()
	if limit > 0 && limit < len(ws) {
		ws = ws[:limit]
	}
	return ws
}

// shuffled returns a seeded permutation of 0..n-1.
func shuffled(r *rand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// shape is one machine shape of the serve key space: MISP with 7 or 3
// AMSs, and thread-mode SMP with 8 or 4 OS-visible cores.
type shape struct {
	mode     string
	topology []int
}

var shapes = []shape{
	{"shred", []int{7}},
	{"shred", []int{3}},
	{"thread", []int{0, 0, 0, 0, 0, 0, 0, 0}},
	{"thread", []int{0, 0, 0, 0}},
}

// Fig. 5's signal-cost axis and §2.3's ring-transition policies: the
// result-affecting knobs that make serve_miss keys distinct.
var (
	signalCosts  = []uint64{500, 1000, 2000, 5000}
	ringPolicies = []string{"suspend-all", "monitor-cr"}
)

func runRequest(app string, sh shape, size string, signal uint64, ring string, trace bool) serve.Request {
	return serve.Request{
		App: app, Mode: sh.mode, Topology: sh.topology, Size: size,
		SignalCost: &signal, RingPolicy: ring, Trace: trace,
	}
}

// missBlockOps is the stratum of the serve_miss stream: every app once
// under each ring policy. Runs end on a block boundary so each run
// measures the same mix.
func missBlockOps(apps int) int { return apps * len(ringPolicies) }

// missStream draws the whole serve_miss key space — apps × 4 shapes ×
// 4 signal costs × 2 ring policies — without replacement, in blocks.
// A block gives every app one (shape, signal cost) cell and requests it
// under both ring policies: ring policy is run-only configuration, so
// the second of each pair can fork the warm-pool image the first one
// captured, and half of every block exercises that path. Over any 4
// consecutive aligned blocks every (app, shape) appears once; which
// signal cost a cell gets in which round, and the order inside a block,
// come from the seed.
func missStream(seed uint64, apps []*workloads.Workload, size string) []serve.Request {
	r := newRand(seed, streamMiss)
	n := len(apps)
	perm := make([][]int, n*len(shapes)) // per (app, shape) cell: signal-cost order
	for i := range perm {
		perm[i] = shuffled(r, len(signalCosts))
	}
	off := r.IntN(len(shapes))
	var out []serve.Request
	for b := 0; b < len(signalCosts)*len(shapes); b++ {
		round := b / len(shapes)
		for _, i := range shuffled(r, missBlockOps(n)) {
			a, ring := i/len(ringPolicies), ringPolicies[i%len(ringPolicies)]
			s := (a + b + off) % len(shapes)
			signal := signalCosts[perm[a*len(shapes)+s][round]]
			out = append(out, runRequest(apps[a].Name, shapes[s], size, signal, ring, false))
		}
	}
	return out
}

// warmupRequests are serve_miss's untimed first ops: one per app on a
// signal cost outside the measured key space, so they warm the daemon's
// heap without pre-populating any measured key.
func warmupRequests(apps []*workloads.Workload, size string) []serve.Request {
	var out []serve.Request
	for i, w := range apps {
		out = append(out, runRequest(w.Name, shapes[i%len(shapes)], size, 4000, ringPolicies[0], false))
	}
	return out
}

// reuseKeys is the serve_reuse working set: apps × the two 8-sequencer
// shapes at the default signal cost, every other one with the
// Chrome-trace artifact. The order is fixed — it is the Zipf rank order,
// and the hottest keys must be the same requests under every seed or
// the bytes served per op would change with the seed.
func reuseKeys(apps []*workloads.Workload, size string) []serve.Request {
	var out []serve.Request
	for s, sh := range []shape{shapes[0], shapes[2]} {
		for a, w := range apps {
			out = append(out, runRequest(w.Name, sh, size, serve.DefaultSignalCost, ringPolicies[0], (a+s)%2 == 0))
		}
	}
	return out
}

// reuseStreamLen is far more draws than a run consumes (under 2k op/s
// here); clients wrap around if a faster host ever gets through it.
const reuseStreamLen = 1 << 19

// reuseStream draws key indices Zipf(s = 1.1) over nkeys ranks.
func reuseStream(seed uint64, nkeys, n int) []uint16 {
	z := rand.NewZipf(newRand(seed, streamReuse), 1.1, 1, uint64(nkeys-1))
	out := make([]uint16, n)
	for i := range out {
		out[i] = uint16(z.Uint64())
	}
	return out
}
