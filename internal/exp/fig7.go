package exp

import (
	"context"
	"fmt"
	"math"

	"misp/internal/core"
	"misp/internal/kernel"
	"misp/internal/report"
	"misp/internal/shredlib"
	"misp/internal/sweep"
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

// Fig7Options configures the multiprogramming experiment.
type Fig7Options struct {
	Size    workloads.Size
	MaxLoad int // additional single-threaded processes, 0..MaxLoad (paper: 4)
	App     string
	Config  func(core.Topology) core.Config
	// Parallel is the host worker count for the config×load grid
	// (sweep.Map semantics); SweepStats optionally accumulates host-side
	// statistics, as in Options. Ctx cancels the experiment (nil =
	// Background).
	Parallel   int
	SweepStats *sweep.Stats
	Ctx        context.Context
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
// RayTracer shares the machine with 0..MaxLoad single-threaded spin
// processes under each Figure 6 configuration.
func Fig7(opt Fig7Options) ([]Fig7Curve, error) {
	if opt.MaxLoad == 0 {
		opt.MaxLoad = 4
	}
	if opt.App == "" {
		opt.App = "raytracer"
	}
	if opt.Config == nil {
		// The multiprogramming experiment needs many scheduling quanta
		// within one (scaled-down) application run; scale the timer
		// accordingly (the paper's runs span thousands of quanta).
		opt.Config = func(top core.Topology) core.Config {
			cfg := workloads.DefaultConfig(top)
			cfg.TimerInterval = 50_000
			return cfg
		}
	}
	w, err := workloads.ByName(opt.App)
	if err != nil {
		return nil, err
	}

	if opt.Ctx == nil {
		opt.Ctx = context.Background()
	}
	configs := Fig7Configs()
	nl := opt.MaxLoad + 1
	cells, st, err := sweep.MapCtx(opt.Ctx, opt.Parallel, nl*len(configs), func(ctx context.Context, i int) (uint64, error) {
		cfg, load := configs[i/nl], i%nl
		cycles, err := fig7Run(ctx, w, cfg, opt, load)
		if err != nil {
			return 0, fmt.Errorf("exp: fig7 %s load %d: %w", cfg.Name, load, err)
		}
		return cycles, nil
	})
	if opt.SweepStats != nil {
		opt.SweepStats.Jobs += st.Jobs
		opt.SweepStats.Wall += st.Wall
		opt.SweepStats.Busy += st.Busy
		if st.Workers > opt.SweepStats.Workers {
			opt.SweepStats.Workers = st.Workers
		}
	}
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
	for load := 0; load <= opt.MaxLoad; load++ {
		ideal.Speedup = append(ideal.Speedup, float64(seqs-load)/float64(seqs))
		ideal.Cycles = append(ideal.Cycles, 0)
	}
	curves = append(curves, ideal)
	return curves, nil
}

// fig7Run executes one cell: the shredded app plus `load` spin
// processes; the run stops when the app finishes.
func fig7Run(ctx context.Context, w *workloads.Workload, cfg Fig7Config, opt Fig7Options, load int) (uint64, error) {
	mcfg := opt.Config(cfg.Top)
	m, err := core.New(mcfg)
	if err != nil {
		return 0, err
	}
	defer m.Release()
	m.SetContext(ctx)
	k := kernel.New(m)
	app, err := k.Spawn(w.Name, w.Build(cfg.Mode, opt.Size))
	if err != nil {
		return 0, err
	}
	for i := 0; i < load; i++ {
		if _, err := k.Spawn(fmt.Sprintf("spin%d", i), workloads.SpinForever()); err != nil {
			return 0, err
		}
	}
	k.StopPredicate = func() bool { return app.Exited }
	if err := m.Run(); err != nil {
		return 0, err
	}
	if err := k.Err(); err != nil {
		return 0, err
	}
	if !app.Exited {
		return 0, fmt.Errorf("app did not finish")
	}
	// Validate the result even under multiprogrammed interference.
	bits, err := app.Space.ReadU64(shredlib.ResultAddr)
	if err != nil {
		return 0, err
	}
	res := workloads.RunResult{Checksum: floatFromBits(bits)}
	if err := checkRun(w, &res, cfg.Name, opt.Size); err != nil {
		return 0, err
	}
	return app.ExitTime - app.StartTime, nil
}

func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

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
