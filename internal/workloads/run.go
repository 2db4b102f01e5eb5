package workloads

import (
	"context"
	"fmt"
	"math"

	"misp/internal/core"
	"misp/internal/kernel"
	"misp/internal/shredlib"
)

// RunResult captures one workload execution.
type RunResult struct {
	Checksum float64
	ExitCode uint64
	Cycles   uint64 // process start-to-exit simulated cycles
	Machine  *core.Machine
	Kernel   *kernel.Kernel
	Proc     *kernel.Process
}

// Run executes workload w in the given runtime mode on a machine built
// from cfg.
func Run(w *Workload, mode shredlib.Mode, cfg core.Config, sz Size) (*RunResult, error) {
	return RunCtx(context.Background(), w, mode, cfg, sz)
}

// RunCtx is Run with cancellation: when ctx is canceled the simulation
// aborts at its next event horizon and the error wraps ctx's cause.
func RunCtx(ctx context.Context, w *Workload, mode shredlib.Mode, cfg core.Config, sz Size) (*RunResult, error) {
	pr, err := Prepare(w, mode, cfg, sz)
	if err != nil {
		return nil, err
	}
	res, err := pr.RunCtx(ctx)
	if err != nil {
		pr.Release() // nobody else holds the failed machine
	}
	return res, err
}

// Release recycles the run's machine memory (core.Machine.Release)
// once the caller has extracted what it wants from the result.
func (r *RunResult) Release() { r.Machine.Release() }

// Prepared is a machine built, booted, and loaded with a workload but
// not yet run. Splitting Prepare from Run lets the simulator bench time
// execution alone, without machine construction and program load.
type Prepared struct {
	W       *Workload
	Mode    shredlib.Mode
	Cfg     core.Config
	Machine *core.Machine
	Kernel  *kernel.Kernel
	Proc    *kernel.Process
}

// Release recycles the prepared machine's memory, run or not (see
// core.Machine.Release). It is the same machine a RunResult of this
// Prepared holds, so releasing either is enough.
func (pr *Prepared) Release() { pr.Machine.Release() }

// Prepare builds the machine and spawns w's program without running it.
func Prepare(w *Workload, mode shredlib.Mode, cfg core.Config, sz Size) (*Prepared, error) {
	return PrepareFlags(w, mode, cfg, sz, 0)
}

// PrepareFlags is Prepare with extra rt_init flags.
func PrepareFlags(w *Workload, mode shredlib.Mode, cfg core.Config, sz Size, extra int64) (*Prepared, error) {
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	k := kernel.New(m)
	prog := w.BuildFlags(mode, sz, extra)
	p, err := k.Spawn(w.Name, prog)
	if err != nil {
		m.Release()
		return nil, err
	}
	return &Prepared{W: w, Mode: mode, Cfg: cfg, Machine: m, Kernel: k, Proc: p}, nil
}

// Run executes the prepared workload to completion and collects the
// result. It consumes the Prepared — a machine cannot be run twice.
func (pr *Prepared) Run() (*RunResult, error) {
	return pr.RunCtx(context.Background())
}

// RunCtx is Run with cancellation (see RunCtx above). A Background
// context costs nothing in the machine's hot loops.
func (pr *Prepared) RunCtx(ctx context.Context) (*RunResult, error) {
	pr.Machine.SetContext(ctx)
	if err := pr.Machine.Run(); err != nil {
		return nil, fmt.Errorf("workloads: %s (%s, %v): %w", pr.W.Name, pr.Mode, pr.Cfg.Topology, err)
	}
	if err := pr.Kernel.Err(); err != nil {
		return nil, fmt.Errorf("workloads: %s (%s, %v): %w", pr.W.Name, pr.Mode, pr.Cfg.Topology, err)
	}
	bits, err := pr.Proc.Space.ReadU64(shredlib.ResultAddr)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Checksum: math.Float64frombits(bits),
		ExitCode: pr.Proc.ExitCode,
		Cycles:   pr.Proc.ExitTime - pr.Proc.StartTime,
		Machine:  pr.Machine,
		Kernel:   pr.Kernel,
		Proc:     pr.Proc,
	}, nil
}

// DefaultConfig builds the standard experiment configuration for a
// topology: the paper's 5000-cycle signal estimate and enough physical
// memory for the reference inputs.
func DefaultConfig(top core.Topology) core.Config {
	cfg := core.DefaultConfig(top)
	cfg.PhysMem = 128 << 20
	cfg.MaxCycles = 60_000_000_000
	return cfg
}
