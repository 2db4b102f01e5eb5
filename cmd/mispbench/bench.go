package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"time"

	"misp/internal/core"
	"misp/internal/exp"
	"misp/internal/shredlib"
	"misp/internal/sweep"
	"misp/internal/workloads"
)

// benchApps are the workloads timed by `-exp bench`: one dense kernel,
// one sparse kernel, and one clustering loop — together they exercise
// the signal/proxy/atomic paths that dominate the simulator's inner
// loop without taking minutes at the default size.
var benchApps = []string{"dense_mmm", "sparse_mvm", "kmeans"}

// benchResult is the schema of BENCH_core.json.
type benchResult struct {
	Size      string   `json:"size"`
	Seqs      int      `json:"seqs"`
	Workloads []string `json:"workloads"`
	Reps      int      `json:"reps"`

	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	WallSeconds  float64 `json:"wall_seconds"`
	InstrsPerSec float64 `json:"instrs_per_sec"`
	Allocs       uint64  `json:"allocs"`

	LegacyWallSeconds  float64 `json:"legacy_wall_seconds"`
	LegacyInstrsPerSec float64 `json:"legacy_instrs_per_sec"`
	LegacyAllocs       uint64  `json:"legacy_allocs"`

	Speedup float64 `json:"speedup"` // fast vs legacy loop

	// Host-parallel sweep prong: the same mini-evaluation (benchApps x
	// {1P, MISP, SMP}) run serially and with all host cores, difftested
	// identical. Wall times are host-dependent; the result equality is
	// not. With one resolved worker the two passes are the same run, so
	// the prong is skipped and only sweep_workers is recorded.
	SweepRuns            int     `json:"sweep_runs,omitempty"`
	SweepWorkers         int     `json:"sweep_workers"`
	SweepSerialSeconds   float64 `json:"sweep_serial_seconds,omitempty"`
	SweepParallelSeconds float64 `json:"sweep_parallel_seconds,omitempty"`
	SweepSpeedup         float64 `json:"sweep_speedup,omitempty"`
	SweepUtilization     float64 `json:"sweep_utilization,omitempty"`
}

// benchReps is the repetition count per (workload, loop): the reported
// wall time is the best rep, which rejects GC and scheduler noise. Reps
// shrink as the problem size grows.
func benchReps(size workloads.Size) int {
	switch size {
	case workloads.SizeTest:
		return 5
	case workloads.SizeSmall:
		return 3
	}
	return 1
}

// benchLoop runs the bench workloads under one execution loop and
// returns (instructions retired, simulated cycles,
// wall time, heap allocations). Only Machine.Run is timed — machine
// construction and result verification happen outside the clock, and
// each rep runs on a freshly prepared machine (released afterwards, so
// the next rep reuses its memory) with the best rep reported. The loop
// choice is run-only config, so all reps of one workload fork a single
// pooled snapshot when warm is non-nil.
func benchLoop(size workloads.Size, seqs int, legacy bool, warm *workloads.WarmPool) (uint64, uint64, time.Duration, uint64, error) {
	top := make(core.Topology, 1)
	top[0] = seqs - 1 // one OMS plus seqs-1 AMSs
	cfg := workloads.DefaultConfig(top)
	cfg.LegacyLoop = legacy
	reps := benchReps(size)

	var instrs, cycles uint64
	var wall time.Duration
	var allocs uint64
	for _, name := range benchApps {
		w, err := workloads.ByName(name)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		best := time.Duration(math.MaxInt64)
		var bestAllocs uint64
		for rep := 0; rep < reps; rep++ {
			pr, err := warm.Prepare(w, shredlib.ModeShred, cfg, size, 0)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			res, err := pr.Run()
			elapsed := time.Since(start)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			if ref := w.Ref(size); !checksumOK(res.Checksum, ref) {
				return 0, 0, 0, 0, fmt.Errorf("bench: %s checksum %g != reference %g", name, res.Checksum, ref)
			}
			if elapsed < best {
				best = elapsed
				bestAllocs = ms1.Mallocs - ms0.Mallocs
			}
			if rep == 0 {
				instrs += res.Machine.Steps
				cycles += res.Machine.MaxClock()
			}
			res.Release()
		}
		wall += best
		allocs += bestAllocs
	}
	return instrs, cycles, wall, allocs, nil
}

func checksumOK(got, want float64) bool {
	if got == want {
		return true
	}
	diff := math.Abs(got - want)
	return diff <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
}

// benchSweep times the mini-evaluation (benchApps × {1P, MISP, SMP})
// serially and with every host core, and difftests the two result sets
// — the determinism the -parallel flag promises, checked on every bench
// run.
func benchSweep(size workloads.Size, seqs, parallel int, res *benchResult) error {
	opt := exp.Options{Size: size, Seqs: seqs, Apps: benchApps}

	// The parallel pass runs first so any heap/page-cache warmup favors
	// the serial pass: the reported sweep speedup is conservative.
	var stats sweep.Stats
	opt.Parallel = parallel // 0 = all cores
	opt.SweepStats = &stats
	start := time.Now()
	par, err := exp.Evaluate(opt)
	if err != nil {
		return err
	}
	parWall := time.Since(start)

	opt.Parallel = 1
	opt.SweepStats = nil
	start = time.Now()
	serial, err := exp.Evaluate(opt)
	if err != nil {
		return err
	}
	serialWall := time.Since(start)

	if !reflect.DeepEqual(serial, par) {
		return fmt.Errorf("bench: sweep results diverge between serial and %d-worker runs", stats.Workers)
	}

	res.SweepRuns = stats.Jobs
	res.SweepWorkers = stats.Workers
	res.SweepSerialSeconds = serialWall.Seconds()
	res.SweepParallelSeconds = parWall.Seconds()
	res.SweepSpeedup = serialWall.Seconds() / parWall.Seconds()
	res.SweepUtilization = stats.Utilization()
	fmt.Printf("bench: sweep  %d runs  serial %v  %d workers %v  speedup %.2fx  util %.0f%% (results identical)\n",
		stats.Jobs, serialWall.Round(time.Millisecond), stats.Workers,
		parWall.Round(time.Millisecond), res.SweepSpeedup, 100*res.SweepUtilization)
	return nil
}

// runBench times the simulator's two execution loops (legacy and fast)
// on identical workloads plus, on a multi-core host, the
// serial-vs-parallel sweep, and writes the result as JSON so CI can
// track the perf trajectory. A non-empty baselinePath gates the run
// against a committed baseline.
func runBench(size workloads.Size, seqs, parallel int, jsonPath, baselinePath string, warm *workloads.WarmPool) error {
	reps := benchReps(size)
	loops := []string{"legacy", "fast"}
	fmt.Printf("bench: %v at size %s on %d sequencers, best of %d...\n",
		benchApps, size, seqs, reps)
	type measure struct {
		instrs, cycles uint64
		wall           time.Duration
		allocs         uint64
	}
	ms := make([]measure, len(loops))
	for i, name := range loops {
		var m measure
		var err error
		m.instrs, m.cycles, m.wall, m.allocs, err = benchLoop(size, seqs, name == "legacy", warm)
		if err != nil {
			return err
		}
		fmt.Printf("bench: %-10s %12d instrs  %v  %.3g instrs/sec\n",
			name, m.instrs, m.wall.Round(time.Millisecond), float64(m.instrs)/m.wall.Seconds())
		if i > 0 && (m.instrs != ms[0].instrs || m.cycles != ms[0].cycles) {
			return fmt.Errorf("bench: %s diverges from legacy: instrs %d/%d cycles %d/%d",
				name, ms[0].instrs, m.instrs, ms[0].cycles, m.cycles)
		}
		ms[i] = m
	}
	legacy, fast := ms[0], ms[1]

	res := benchResult{
		Size:      size.String(),
		Seqs:      seqs,
		Workloads: benchApps,
		Reps:      reps,

		Instructions: fast.instrs,
		Cycles:       fast.cycles,
		WallSeconds:  fast.wall.Seconds(),
		InstrsPerSec: float64(fast.instrs) / fast.wall.Seconds(),
		Allocs:       fast.allocs,

		LegacyWallSeconds:  legacy.wall.Seconds(),
		LegacyInstrsPerSec: float64(legacy.instrs) / legacy.wall.Seconds(),
		LegacyAllocs:       legacy.allocs,

		Speedup: legacy.wall.Seconds() / fast.wall.Seconds(),

		SweepWorkers: sweep.Workers(parallel),
	}
	fmt.Printf("bench: speedup %.2fx vs legacy (allocs %d -> %d)\n",
		res.Speedup, legacy.allocs, fast.allocs)

	if res.SweepWorkers == 1 {
		fmt.Println("bench: sweep  skipped (1 worker: the parallel pass would repeat the serial one)")
	} else if err := benchSweep(size, seqs, parallel, &res); err != nil {
		return err
	}

	if baselinePath != "" {
		if err := checkBaseline(&res, baselinePath); err != nil {
			return err
		}
	}

	if jsonPath != "" {
		buf, err := json.MarshalIndent(&res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("(wrote %s)\n", jsonPath)
	}
	return nil
}

// checkBaseline gates the fresh measurements against a committed
// baseline:
//
//   - Deterministic fields (instructions, simulated cycles) must match
//     EXACTLY when the bench configuration is the same — the simulator
//     promises bit-identical execution, so any drift is a correctness
//     regression, not noise.
//   - The host-relative fast-vs-legacy speedup must not drop more than
//     20% below the baseline. It compares two runs on the same host, so
//     it transfers across machines; absolute instrs/sec does not and is
//     not gated.
//   - Sweep wall times and speedups depend on the host's core count and
//     are not gated.
func checkBaseline(res *benchResult, path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("bench: baseline: %w", err)
	}
	var base benchResult
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("bench: baseline %s: %w", path, err)
	}
	sameConfig := base.Size == res.Size && base.Seqs == res.Seqs &&
		reflect.DeepEqual(base.Workloads, res.Workloads)
	if !sameConfig {
		fmt.Printf("bench: baseline %s has different config (%s/%d seqs); skipping exact gates\n",
			path, base.Size, base.Seqs)
	} else {
		if base.Instructions != res.Instructions {
			return fmt.Errorf("bench: instructions %d != baseline %d (simulation must be bit-identical)",
				res.Instructions, base.Instructions)
		}
		if base.Cycles != res.Cycles {
			return fmt.Errorf("bench: cycles %d != baseline %d (simulation must be bit-identical)",
				res.Cycles, base.Cycles)
		}
	}
	const tolerance = 0.20
	if res.Speedup < base.Speedup*(1-tolerance) {
		return fmt.Errorf("bench: speedup (fast vs legacy) regressed: %.3f < baseline %.3f - 20%%",
			res.Speedup, base.Speedup)
	}
	fmt.Printf("bench: gate speedup (fast vs legacy) %.3f vs baseline %.3f ok\n", res.Speedup, base.Speedup)
	fmt.Printf("bench: baseline gate passed (%s)\n", path)
	return nil
}
