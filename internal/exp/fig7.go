package exp

import (
	"context"
	"fmt"
	"math"

	"misp/internal/asm"
	"misp/internal/core"
	"misp/internal/kernel"
	"misp/internal/report"
	"misp/internal/shredlib"
	"misp/internal/workloads"
)

// Fig7Config is one machine configuration of the Figure 6/7 study.
type Fig7Config struct {
	Name string
	Top  core.Topology
	Mode shredlib.Mode
}

// Fig7Configs returns the paper's Figure 6 configurations over 8
// sequencers, plus the SMP baseline.
func Fig7Configs() []Fig7Config {
	return []Fig7Config{
		{"smp", core.Topology{0, 0, 0, 0, 0, 0, 0, 0}, shredlib.ModeThread},
		{"4x2", core.Topology{1, 1, 1, 1}, shredlib.ModeShred},
		{"2x4", core.Topology{3, 3}, shredlib.ModeShred},
		{"1x8", core.Topology{7}, shredlib.ModeShred},
		{"1x7+1", core.Topology{6, 0}, shredlib.ModeShred},
		{"1x6+2", core.Topology{5, 0, 0}, shredlib.ModeShred},
		{"1x5+3", core.Topology{4, 0, 0, 0}, shredlib.ModeShred},
		{"1x4+4", core.Topology{3, 0, 0, 0, 0}, shredlib.ModeShred},
	}
}

// Fig7Curve is one configuration's series: relative RayTracer
// performance at each system load, normalized to its own unloaded run
// (the paper's "Speedup (vs. unloaded)" axis).
type Fig7Curve struct {
	Config  string
	Cycles  []uint64
	Speedup []float64
}

// Fig7 runs the multiprogramming experiment of §5.4: a multi-shredded
// RayTracer shares the machine with 0..maxLoad (paper: 4)
// single-threaded spin processes under each Figure 6 configuration.
// The configurations are fixed at 8 sequencers, so opt.Seqs and
// opt.Apps do not apply.
func Fig7(opt Options, maxLoad int) ([]Fig7Curve, error) {
	opt.defaults()
	w, err := workloads.ByName("raytracer")
	if err != nil {
		return nil, err
	}
	configs := Fig7Configs()
	nl := maxLoad + 1
	cells, err := grid(&opt, nl*len(configs), func(ctx context.Context, i int) (uint64, error) {
		cfg, load := configs[i/nl], i%nl
		cycles, _, err := multiprogRun(ctx, &opt, w, w.Build(cfg.Mode, opt.Size), cfg.Top, load, false)
		if err != nil {
			return 0, fmt.Errorf("exp: fig7 %s load %d: %w", cfg.Name, load, err)
		}
		return cycles, nil
	})
	if err != nil {
		return nil, err
	}
	var curves []Fig7Curve
	for ci, cfg := range configs {
		curve := Fig7Curve{Config: cfg.Name, Cycles: cells[ci*nl : (ci+1)*nl]}
		for _, cycles := range curve.Cycles {
			curve.Speedup = append(curve.Speedup, float64(curve.Cycles[0])/float64(cycles))
		}
		curves = append(curves, curve)
	}
	// The "ideal" trend: competing processes occupy otherwise-unused
	// sequencers first, so the shredded app keeps (S-load)/S of the
	// machine.
	ideal := Fig7Curve{Config: "ideal"}
	seqs := 8
	for load := 0; load <= maxLoad; load++ {
		ideal.Speedup = append(ideal.Speedup, float64(seqs-load)/float64(seqs))
		ideal.Cycles = append(ideal.Cycles, 0)
	}
	curves = append(curves, ideal)
	return curves, nil
}

// multiprogTick is the timer interval of every multiprogrammed run.
// The scaled-down applications need many scheduling quanta within one
// run (the paper's runs span thousands), and A4's binder acts once per
// tick.
const multiprogTick = 50_000

// multiprogRun is one multiprogrammed cell, shared by Figure 7 and A4:
// prog (built from w) runs as a process beside loads single-threaded
// spin processes on topology top until it exits, with the kernel's
// dynamic AMS binder on when dynamic is set. Its checksum is validated
// even under the interference; the results are the app's turnaround
// cycles and the binder's rebind count.
func multiprogRun(ctx context.Context, opt *Options, w *workloads.Workload, prog *asm.Program, top core.Topology, loads int, dynamic bool) (cycles, rebinds uint64, err error) {
	cfg := workloads.DefaultConfig(top)
	cfg.TimerInterval = multiprogTick
	m, err := core.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer m.Release()
	m.SetContext(ctx)
	k := kernel.New(m)
	k.DynamicAMSBinding = dynamic
	app, err := k.Spawn(w.Name, prog)
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < loads; i++ {
		if _, err := k.Spawn(fmt.Sprintf("spin%d", i), workloads.SpinForever()); err != nil {
			return 0, 0, err
		}
	}
	k.StopPredicate = func() bool { return app.Exited }
	if err := m.Run(); err != nil {
		return 0, 0, err
	}
	if err := k.Err(); err != nil {
		return 0, 0, err
	}
	if !app.Exited {
		return 0, 0, fmt.Errorf("app did not finish")
	}
	bits, err := app.Space.ReadU64(shredlib.ResultAddr)
	if err != nil {
		return 0, 0, err
	}
	res := workloads.RunResult{Checksum: math.Float64frombits(bits)}
	if err := checkRun(w, &res, "a multiprogrammed machine", opt.Size); err != nil {
		return 0, 0, err
	}
	return app.ExitTime - app.StartTime, k.Stats.Rebinds, nil
}

// Fig7Table renders the curves: one row per configuration, one column
// per load level.
func Fig7Table(curves []Fig7Curve, maxLoad int) *report.Table {
	cols := []string{"config"}
	for l := 0; l <= maxLoad; l++ {
		cols = append(cols, fmt.Sprintf("load %d", l))
	}
	t := &report.Table{
		Title: "Figure 7 — MISP MP Performance (RayTracer speedup vs unloaded)",
		Cols:  cols,
	}
	for _, c := range curves {
		row := []any{c.Config}
		for _, s := range c.Speedup {
			row = append(row, s)
		}
		t.Add(row...)
	}
	return t
}
