// Package misp is the public API of the MISP reproduction: a
// full-system simulator of the Multiple Instruction Stream Processing
// architecture (Hankins et al., ISCA 2006), together with the paper's
// software stack (the ShredLib user-level runtime, a mini
// multiprocessor OS) and its complete evaluation (Figures 4, 5, 7 and
// Tables 1, 2, plus ablations).
//
// Quick start:
//
//	w, _ := misp.Workload("raytracer")
//	res, _ := misp.RunWorkload(w, misp.ModeShred, misp.Topology{7}, misp.SizeSmall)
//	fmt.Println(res.Cycles, res.Checksum)
//
// Or run a program written in SVM-32 assembly:
//
//	prog := misp.MustAssemble(src)
//	os, m, _ := misp.RunProgram(misp.DefaultConfig(misp.Topology{3}), prog)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured comparison.
package misp

import (
	"misp/internal/asm"
	"misp/internal/core"
	"misp/internal/exp"
	"misp/internal/kernel"
	"misp/internal/report"
	"misp/internal/shredlib"
	"misp/internal/workloads"
)

// Machine configuration.
type (
	// Config holds the machine parameters a run may vary (topology,
	// memory, signal cost, timer interval, ring policy, limits).
	Config = core.Config
	// Topology lists the AMS count of each MISP processor; 0 entries
	// are plain OS-visible cores. Topology{7} is the paper's 1×8.
	Topology = core.Topology
	// Machine is the simulated system.
	Machine = core.Machine
	// Sequencer is one hardware thread context.
	Sequencer = core.Sequencer
	// Processor is one MISP processor (1 OMS + N AMS).
	Processor = core.Processor
	// RingPolicy selects the §2.3 ring-transition serialization scheme.
	RingPolicy = core.RingPolicy
)

// Ring-transition policies.
const (
	RingSuspendAll = core.RingSuspendAll
	RingMonitorCR  = core.RingMonitorCR
)

// DefaultConfig returns the paper-calibrated baseline configuration.
func DefaultConfig(top Topology) Config { return core.DefaultConfig(top) }

// NewMachine builds a machine.
func NewMachine(cfg Config) (*Machine, error) { return core.New(cfg) }

// Programs and assembly.
type (
	// Program is a linked SVM-32 executable.
	Program = asm.Program
	// Builder assembles programs instruction by instruction.
	Builder = asm.Builder
)

// NewBuilder creates a program builder with the standard memory layout.
func NewBuilder() *Builder { return asm.NewBuilder() }

// Assemble parses SVM-32 assembler source text.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// MustAssemble is Assemble that panics on error.
func MustAssemble(src string) *Program { return asm.MustAssemble(src) }

// Operating systems.
type (
	// Kernel is the mini multiprocessor OS.
	Kernel = kernel.Kernel
	// Process is one kernel process.
	Process = kernel.Process
	// BareOS is the single-process OS for kernel-less embedding.
	BareOS = core.BareOS
)

// NewKernel attaches a fresh kernel to m.
func NewKernel(m *Machine) *Kernel { return kernel.New(m) }

// RunProgram executes prog under BareOS on a machine built from cfg.
func RunProgram(cfg Config, prog *Program) (*BareOS, *Machine, error) {
	return core.RunBare(cfg, prog)
}

// The ShredLib / threadlib runtime.
type (
	// RuntimeMode selects ShredLib (MISP shreds) or threadlib (OS threads).
	RuntimeMode = shredlib.Mode
)

// Runtime modes.
const (
	ModeShred  = shredlib.ModeShred
	ModeThread = shredlib.ModeThread
)

// NewRuntimeProgram returns a Builder preloaded with the runtime and
// the standard program preamble; the caller defines app_main.
func NewRuntimeProgram(mode RuntimeMode, flags int64) *Builder {
	return shredlib.NewProgram(mode, flags)
}

// Runtime flags.
const (
	FlagYieldOnIdle = shredlib.FlagYieldOnIdle
	FlagProbePages  = shredlib.FlagProbePages
)

// Workloads.
type (
	// WorkloadSpec is one of the paper's evaluation programs.
	WorkloadSpec = workloads.Workload
	// RunResult captures one workload execution.
	RunResult = workloads.RunResult
	// Size selects a problem-size preset.
	Size = workloads.Size
)

// Problem sizes.
const (
	SizeTest  = workloads.SizeTest
	SizeSmall = workloads.SizeSmall
	SizeRef   = workloads.SizeRef
)

// Workload looks up one of the 17 registered workloads by name.
func Workload(name string) (*WorkloadSpec, error) { return workloads.ByName(name) }

// Workloads returns every registered workload in Figure 4 order.
func Workloads() []*WorkloadSpec { return workloads.All() }

// RunWorkload executes a workload on a default-configured machine.
func RunWorkload(w *WorkloadSpec, mode RuntimeMode, top Topology, sz Size) (*RunResult, error) {
	return workloads.Run(w, mode, workloads.DefaultConfig(top), sz)
}

// Experiments.
type (
	// EvalOptions configures every experiment.
	EvalOptions = exp.Options
	// AppResult is one application's cross-configuration measurement.
	AppResult = exp.AppResult
	// SweepRow is one app × signal-cost measurement.
	SweepRow = exp.SweepRow
	// Fig7Curve is one configuration's load series.
	Fig7Curve = exp.Fig7Curve
	// Table is a renderable result table (text and CSV).
	Table = report.Table
)

// Evaluate runs the standard evaluation.
func Evaluate(opt EvalOptions) ([]*AppResult, error) { return exp.Evaluate(opt) }

// Fig4Table renders Figure 4 from evaluation results.
func Fig4Table(results []*AppResult, seqs int) *Table { return exp.Fig4Table(results, seqs) }

// Table1 renders the serializing-event table.
func Table1(results []*AppResult) *Table { return exp.Table1(results) }

// SignalSweep measures the signal-cost sensitivity series (Figure 5).
func SignalSweep(opt EvalOptions) ([]SweepRow, error) { return exp.SignalSweep(opt) }

// Fig5Table renders the signal-cost sensitivity analysis.
func Fig5Table(rows []SweepRow) *Table { return exp.Fig5Table(rows) }

// Fig7 runs the multiprogramming experiment at loads 0..maxLoad.
func Fig7(opt EvalOptions, maxLoad int) ([]Fig7Curve, error) { return exp.Fig7(opt, maxLoad) }

// Fig7Table renders the Figure 7 curves.
func Fig7Table(curves []Fig7Curve, maxLoad int) *Table { return exp.Fig7Table(curves, maxLoad) }
