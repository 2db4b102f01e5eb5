//go:build linux

package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"misp/internal/core"
	"misp/internal/exp"
	"misp/internal/obs"
	"misp/internal/shredlib"
	"misp/internal/snap"
	"misp/internal/sweep"
	"misp/internal/workloads"
)

// checksumOK applies exp.checkRun's tolerance: exact, or within 1e-9
// relative (parallel reductions reassociate floating-point sums).
func checksumOK(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
}

// identity is the deterministic outcome of one simulated op. Two runs
// of the same op must agree on it exactly.
type identity struct{ instrs, cycles uint64 }

func checkRun(w *workloads.Workload, size workloads.Size, res *workloads.RunResult, want *identity) error {
	if !checksumOK(res.Checksum, w.Ref(size)) {
		return fmt.Errorf("%s: checksum %g does not match reference %g", w.Name, res.Checksum, w.Ref(size))
	}
	got := identity{res.Machine.Steps, res.Cycles}
	if want.instrs == 0 {
		*want = got
	} else if got != *want {
		return fmt.Errorf("%s: repeat reported instrs/cycles %v, first run %v", w.Name, got, *want)
	}
	return nil
}

// ---- sim_ref ---------------------------------------------------------

var simRefTopology = core.Topology{7}

// runSimRef times Prepared.Run on the evaluated apps at the reference
// size, MISP 1x8, whole passes in seeded order until the op clock has
// accumulated the window. PrepareFlags runs between ops, outside the op
// clock: the workload exists to isolate the execution core.
func runSimRef(ctx context.Context, cfg *config, _ string, window time.Duration) (*e2eRun, error) {
	size := cfg.sizeOr(workloads.SizeRef)
	apps := evaluatedApps(cfg.appLimit)
	ids := make([]identity, len(apps))
	mcfg := workloads.DefaultConfig(simRefTopology)
	e := newE2E("op")
	e.info["size"] = size.String()
	e.info["apps"] = len(apps)

	// op runs app i once and, when rd is non-nil, accounts it to that
	// round. A prepare failure is a harness-level error; a failed run or
	// check is a failed op.
	op := func(i int, rd *round) error {
		pr, err := workloads.PrepareFlags(apps[i], shredlib.ModeShred, mcfg, size, 0)
		if err != nil {
			return err
		}
		c0, t0 := selfCPU(), time.Now()
		res, err := pr.RunCtx(ctx)
		d, c := time.Since(t0), selfCPU()-c0
		if err == nil {
			err = checkRun(apps[i], size, res, &ids[i])
		}
		if rd == nil {
			return err
		}
		rd.wall += d
		rd.cpu += c
		e.attempted++
		if err != nil {
			e.fail(err)
			return nil
		}
		rd.ops++
		rd.units++
		rd.instrs += res.Machine.Steps
		e.lat = append(e.lat, d)
		return nil
	}

	t0 := time.Now()
	for i := range apps { // untimed warm-up pass; also fixes each app's identity
		if err := op(i, nil); err != nil {
			return nil, fmt.Errorf("sim_ref warm-up: %w", err)
		}
	}
	e.setup = time.Since(t0)

	r := newRand(cfg.seed, streamSim)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for e.wall() < window && ctx.Err() == nil {
		var rd round // one pass over the apps
		for _, i := range shuffled(r, len(apps)) {
			if err := op(i, &rd); err != nil {
				return nil, err
			}
		}
		e.rounds = append(e.rounds, rd)
	}
	runtime.ReadMemStats(&m1)
	e.layer["host.alloc_mb_per_op"] = perOp(float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), e.attempted)
	return e, ctx.Err()
}

// replaySimRef replays one pass with a span around every layer call and
// reads the machine's public counters after each run.
func replaySimRef(ctx context.Context, cfg *config, _ string, _ *e2eRun) (*replay, error) {
	size := cfg.sizeOr(workloads.SizeRef)
	apps := evaluatedApps(cfg.appLimit)
	mcfg := workloads.DefaultConfig(simRefTopology)
	rp := newReplay()
	r := newRand(cfg.seed, streamSim)
	for n, i := range shuffled(r, len(apps)) {
		w := apps[i]
		root := rp.rec.begin("op:"+w.Name, -1, n)
		s := rp.rec.begin("workloads.build", root, n)
		w.BuildFlags(shredlib.ModeShred, size, 0)
		rp.rec.end(s)
		s = rp.rec.begin("workloads.prepare", root, n)
		pr, err := workloads.PrepareFlags(w, shredlib.ModeShred, mcfg, size, 0)
		rp.rec.end(s)
		if err != nil {
			return nil, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s = rp.rec.begin("core.run", root, n)
		res, err := pr.RunCtx(ctx)
		d := rp.rec.end(s)
		runtime.ReadMemStats(&m1)
		rp.rec.end(root)
		if err != nil {
			return nil, err
		}
		if err := checkRun(w, size, res, new(identity)); err != nil {
			return nil, err
		}
		rp.allocs = append(rp.allocs, float64(m1.Mallocs-m0.Mallocs))
		rp.addMachine(res)
		rp.explained = append(rp.explained, d)
	}
	return rp, nil
}

// ---- eval_sweep ------------------------------------------------------

const evalSeqs = 8

// gridPoint is Evaluate's configuration rule, restated so the harness
// can run the same grid itself: per app 1P, MISP 1x8, SMP 8.
func gridPoint(c int) (shredlib.Mode, core.Config) {
	switch c {
	case 1:
		return shredlib.ModeShred, workloads.DefaultConfig(core.Topology{evalSeqs - 1})
	case 2:
		return shredlib.ModeThread, workloads.DefaultConfig(make(core.Topology, evalSeqs))
	}
	return shredlib.ModeShred, workloads.DefaultConfig(core.Topology{0})
}

// runEvalSweep times whole exp.Evaluate passes — the grid mispbench
// -exp fig4 runs — each with a fresh warm pool and the apps in seeded
// order. Evaluate returns cycles only, so set-up runs the grid once
// itself to learn every point's exact instruction count; timed passes
// must reproduce the cycles that pass saw.
func runEvalSweep(ctx context.Context, cfg *config, _ string, window time.Duration) (*e2eRun, error) {
	size := cfg.sizeOr(workloads.SizeSmall)
	apps := evaluatedApps(cfg.appLimit)
	e := newE2E("grid point")
	e.info["size"] = size.String()
	e.info["apps"] = len(apps)
	e.info["grid_points"] = 3 * len(apps)
	e.info["parallel"] = cfg.nproc

	t0 := time.Now()
	grid, _, err := sweep.MapCtx(ctx, cfg.nproc, 3*len(apps), func(ctx context.Context, i int) (identity, error) {
		mode, mcfg := gridPoint(i % 3)
		res, err := workloads.RunCtx(ctx, apps[i/3], mode, mcfg, size)
		if err != nil {
			return identity{}, err
		}
		var id identity
		err = checkRun(apps[i/3], size, res, &id)
		return id, err
	})
	if err != nil {
		return nil, fmt.Errorf("eval_sweep warm-up: %w", err)
	}
	want := make(map[string][3]identity)
	var gridInstrs uint64
	for i, id := range grid {
		p := want[apps[i/3].Name]
		p[i%3] = id
		want[apps[i/3].Name] = p
		gridInstrs += id.instrs
	}
	e.setup = time.Since(t0)

	r := newRand(cfg.seed, streamEval)
	var st sweep.Stats
	var hits, misses uint64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for e.wall() < window && ctx.Err() == nil {
		order := names(apps)
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		pool := workloads.NewWarmPool()
		c0, t0 := selfCPU(), time.Now()
		results, err := exp.Evaluate(exp.Options{
			Size: size, Seqs: evalSeqs, Apps: order, Parallel: cfg.nproc,
			Warm: pool, SweepStats: &st, Ctx: ctx,
		})
		rd := round{wall: time.Since(t0), cpu: selfCPU() - c0} // one pass is one round and one op
		e.attempted++
		for _, res := range results {
			got := [3]uint64{res.Cycles1P, res.CyclesMISP, res.CyclesSMP}
			for k, id := range want[res.Name] {
				if err == nil && got[k] != id.cycles {
					err = fmt.Errorf("%s config %d: %d cycles, set-up pass saw %d", res.Name, k, got[k], id.cycles)
				}
			}
		}
		h, m := pool.Stats()
		hits, misses = hits+h, misses+m
		if err != nil {
			e.fail(err)
		} else {
			rd.ops, rd.units, rd.instrs = 1, float64(len(grid)), gridInstrs
			e.lat = append(e.lat, rd.wall)
		}
		e.rounds = append(e.rounds, rd)
	}
	runtime.ReadMemStats(&m1)
	e.layer["sweep.utilization"] = st.Utilization()
	e.layer["sweep.workers"] = float64(st.Workers)
	e.layer["workloads.warm_hit_share"] = share(hits, misses)
	e.layer["host.alloc_mb_per_op"] = perOp(float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), e.attempted)
	return e, ctx.Err()
}

// replayEvalSweep walks the grid serially, doing by hand what the warm
// pool does on a miss (cold prepare + capture) and what it would do on
// a hit (fork), then times one serial exp.Evaluate: what that pass
// takes beyond the replayed prepare/capture/run children is the exp +
// sweep layers' own time.
func replayEvalSweep(ctx context.Context, cfg *config, _ string, _ *e2eRun) (*replay, error) {
	size := cfg.sizeOr(workloads.SizeSmall)
	apps := evaluatedApps(cfg.appLimit)
	rp := newReplay()
	for n := 0; n < 3*len(apps); n++ {
		w := apps[n/3]
		mode, mcfg := gridPoint(n % 3)
		root := rp.rec.begin(fmt.Sprintf("op:%s/%d", w.Name, n%3), -1, n)
		pr, img, err := rp.coldPrepare(root, n, w, mode, mcfg, size)
		if err != nil {
			return nil, err
		}
		// The fork is what a warm hit would have cost; Evaluate never
		// gets one on this grid, so it is not one of its children.
		s := rp.rec.begin("snap.fork", root, n)
		_, _, err = img.Fork(func(c *core.Config) { *c = mcfg })
		rp.rec.end(s)
		if err != nil {
			return nil, err
		}
		s = rp.rec.begin("core.run", root, n)
		res, err := pr.RunCtx(ctx)
		rp.rec.end(s)
		rp.rec.end(root)
		if err != nil {
			return nil, err
		}
		if err := checkRun(w, size, res, new(identity)); err != nil {
			return nil, err
		}
		rp.addMachine(res)
	}
	var children time.Duration // what Evaluate's jobs do: prepare, capture, run
	for _, sp := range rp.rec.spans {
		switch sp.name {
		case "workloads.prepare", "snap.capture", "core.run":
			children += sp.end - sp.start
		}
	}
	pool := workloads.NewWarmPool()
	s := rp.rec.begin("exp.evaluate", -1, 3*len(apps))
	_, err := exp.Evaluate(exp.Options{Size: size, Seqs: evalSeqs, Apps: names(apps), Parallel: 1, Warm: pool, Ctx: ctx})
	total := rp.rec.end(s)
	if err != nil {
		return nil, err
	}
	rp.values["exp.evaluate_self_ms"] = ms(max(0, total-children))
	// One op of this workload is a whole pass; the timed passes spread
	// these children over nproc sweep workers.
	rp.explained = []time.Duration{children / time.Duration(cfg.nproc)}
	return rp, nil
}

func names(apps []*workloads.Workload) []string {
	out := make([]string, len(apps))
	for i, w := range apps {
		out[i] = w.Name
	}
	return out
}

// ---- shared by every replay -----------------------------------------

// replay is what a traced replay collected: spans, the exact counters
// summed over its fixed op list, and a few per-op samples.
type replay struct {
	rec *recorder

	instrs, cycles                       uint64
	tlbHits, tlbMisses, tlbPermMisses    uint64
	sbBuilds, sbInvalidates, sbBlockRuns uint64
	kernel                               [5]uint64 // syscalls, page faults, switches, ticks, IPIs

	allocs  []float64       // mallocs per core run (sim_ref)
	imageKB []float64       // snapshot image sizes
	encode  []time.Duration // artifact-encode residue per op (serve_miss)
	// explained is, per replayed op, the time spent inside layer spans
	// that the untraced op would also have spent: its median beside the
	// untraced op_p50_ms shows what the trace does not account for.
	explained []time.Duration
	values    map[string]float64
}

func newReplay() *replay {
	return &replay{rec: newRecorder(), values: make(map[string]float64)}
}

// coldPrepare is what a warm-pool miss costs, one span per step: the
// program build (a probe of its own — PrepareFlags builds again
// internally), the cold PrepareFlags, and the Capture of the image.
func (rp *replay) coldPrepare(parent, op int, w *workloads.Workload, mode shredlib.Mode, mcfg core.Config, size workloads.Size) (*workloads.Prepared, *snap.Snapshot, error) {
	s := rp.rec.begin("workloads.build", parent, op)
	w.BuildFlags(mode, size, 0)
	rp.rec.end(s)
	s = rp.rec.begin("workloads.prepare", parent, op)
	pr, err := workloads.PrepareFlags(w, mode, mcfg, size, 0)
	rp.rec.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = rp.rec.begin("snap.capture", parent, op)
	img, err := snap.Capture(pr.Machine, pr.Kernel)
	rp.rec.end(s)
	if err != nil {
		return nil, nil, err
	}
	rp.imageKB = append(rp.imageKB, float64(img.Size())/1024)
	return pr, img, nil
}

// addMachine folds one finished machine's public counters into the
// replay's exact totals.
func (rp *replay) addMachine(res *workloads.RunResult) {
	m := res.Machine
	rp.instrs += m.Steps
	rp.cycles += m.MaxClock()
	for _, s := range m.Seqs {
		rp.tlbHits += s.TLB.Hits
		rp.tlbMisses += s.TLB.Misses
		rp.tlbPermMisses += s.TLB.PermMisses
	}
	reg := m.Obs.Metrics
	rp.sbBuilds += reg.CounterValue(obs.MSBBuilds)
	rp.sbInvalidates += reg.CounterValue(obs.MSBInvalidates)
	rp.sbBlockRuns += reg.CounterValue(obs.MSBRuns)
	ks := res.Kernel.Stats
	for i, v := range [5]uint64{ks.Syscalls, ks.PageFaults, ks.Switches, ks.Ticks, ks.IPIs} {
		rp.kernel[i] += v
	}
}

func share(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}
