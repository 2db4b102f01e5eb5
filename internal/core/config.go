// Package core implements the MISP machine: sequencers grouped into
// MISP processors, the SVM-32 interpreter, and the firmware-level MISP
// mechanisms that are the paper's contribution — the SIGNAL
// instruction, the YIELD-CONDITIONAL trigger/response mechanism, proxy
// execution, and ring-transition serialization of application-managed
// sequencers (Hankins et al., ISCA 2006, §2).
//
// The machine is a deterministic discrete-event simulator: the run loop
// always advances the runnable sequencer with the smallest local clock,
// so exactly one instruction commits at a time machine-wide and results
// are exactly reproducible.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"misp/internal/fault"
	"misp/internal/mem"
)

// RingPolicy selects how a MISP processor keeps the shared virtual
// address space consistent across its sequencers while the OMS executes
// at ring 0 (§2.3).
type RingPolicy uint8

const (
	// RingSuspendAll suspends every running AMS when the OMS enters
	// ring 0 and resumes them when it returns to ring 3 — the simple
	// mechanism the paper's prototype implements.
	RingSuspendAll RingPolicy = iota
	// RingMonitorCR lets AMSs keep running speculatively while the OMS
	// is at ring 0, suspending them only if the kernel actually writes a
	// paging control register — the "more aggressive microarchitecture"
	// sketched in §2.3. Implemented for the A1 ablation.
	RingMonitorCR
)

func (p RingPolicy) String() string {
	if p == RingMonitorCR {
		return "monitor-cr"
	}
	return "suspend-all"
}

// ParseRingPolicy reads a ring policy by its String name.
func ParseRingPolicy(s string) (RingPolicy, error) {
	for _, p := range []RingPolicy{RingSuspendAll, RingMonitorCR} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown ring policy %q (want suspend-all or monitor-cr)", s)
}

// Topology describes a machine as the number of AMSs attached to each
// MISP processor. Element i is processor i's AMS count; a value of 0
// gives a plain OS-visible core. Examples from the paper's Figure 6:
//
//	Topology{7}           1×8 MISP uniprocessor (1 OMS + 7 AMS)
//	Topology{3, 3}        2×4
//	Topology{1, 1, 1, 1}  4×2
//	Topology{3, 0, 0, 0, 0} 1×4 + 4
//	Topology{0 x 8}       8-way SMP
type Topology []int

// Seqs returns the total number of sequencers.
func (t Topology) Seqs() int {
	n := 0
	for _, a := range t {
		n += 1 + a
	}
	return n
}

// String renders the topology in the paper's k×n notation.
func (t Topology) String() string {
	// Group identical processors.
	s := ""
	i := 0
	for i < len(t) {
		j := i
		for j < len(t) && t[j] == t[i] {
			j++
		}
		if s != "" {
			s += " + "
		}
		if t[i] == 0 {
			s += fmt.Sprintf("%d", j-i)
		} else {
			s += fmt.Sprintf("%dx%d", j-i, t[i]+1)
		}
		i = j
	}
	return s
}

// ParseTopology reads the command-line form of a topology: the
// per-processor AMS counts, comma-separated ("7", "3,3", "0,0,0,0").
func ParseTopology(s string) (Topology, error) {
	var top Topology
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad topology %q", s)
		}
		top = append(top, n)
	}
	return top, nil
}

// Config holds the machine parameters a run may vary. The zero value
// is not usable; start from DefaultConfig.
type Config struct {
	Topology Topology
	PhysMem  uint64 // bytes of simulated physical memory

	// MISP cost model (cycles): the one cost the sensitivity study
	// varies (§5.3). The rest of the model is the constants below.
	SignalCost uint64 // inter-sequencer signal latency (paper §5.2: 5000 conservative)

	// OS model (cycles).
	TimerInterval uint64 // cycles between timer interrupts on each OMS

	RingPolicy RingPolicy

	// TraceEvents enables the fine-grained time-stamped event log
	// (the prototype firmware's logging facility, §4.1), kept by the
	// obs subsystem's event bus. The log holds at most obs.EventCap
	// events; a longer run keeps the head and counts the rest as dropped.
	TraceEvents bool
	// ProfilePC enables the per-PC cycle profile (the obs hot-spot
	// report: exact simulated-cycle attribution per program counter).
	ProfilePC bool
	// MaxCycles aborts a run that exceeds this global time (a deadlock
	// guard for tests); 0 means no limit.
	MaxCycles uint64

	// Fault configures the deterministic fault-injection plane. Held by
	// value so every machine built from a copied Config constructs its
	// own identical Plan (the -parallel sweep workers must not share
	// schedule state). The zero value disables injection: the machine
	// carries no plan and the hot loop pays one nil check.
	Fault fault.Config
	// WatchdogHorizon is the livelock-detection window in cycles: if the
	// machine clock advances a full horizon with zero instructions
	// retired machine-wide, the run aborts with a structured Diagnosis.
	// 0 auto-selects 8×TimerInterval when fault injection is enabled and
	// disables the watchdog otherwise.
	WatchdogHorizon uint64
}

// The firmware and OS cost model, in cycles (DESIGN.md §6). The
// per-opcode costs are isa's; the hardware page walk is mem.WalkCost.
const (
	TrapCost   = 150 // one ring crossing (entry or exit)
	YieldCost  = 30  // YIELD-CONDITIONAL flyweight transfer into a handler
	CtxMemCost = 40  // SAVECTX/LDCTX beyond the opcode base cost

	QuantumTicks    = 5    // timer ticks per scheduling quantum
	TimerTickCost   = 600  // kernel timer-interrupt service
	PageFaultCost   = 1200 // page-fault service (kernel and BareOS)
	SyscallBaseCost = 400  // syscall dispatch (kernel and BareOS)
	CtxSwitchCost   = 2500 // thread context switch
	AMSStateCost    = 400  // additional save/restore per AMS on context switch (§2.2)
)

// DefaultConfig returns the baseline configuration used throughout the
// evaluation: the paper's 5000-cycle signal estimate and a 1M-cycle
// timer (see DESIGN.md §6).
func DefaultConfig(top Topology) Config {
	return Config{
		Topology:      top,
		PhysMem:       256 << 20,
		SignalCost:    5000,
		TimerInterval: 1_000_000,
		RingPolicy:    RingSuspendAll,
	}
}

// Structural renders the parameters a machine consumes while it is
// built, so a snapshot cannot change them on restore: the topology and
// memory size are literal in the image, kernel.New bakes TimerInterval
// into every OMS timer deadline, Spawn's kick-idle IPI bakes SignalCost
// into the target OMS's, and the obs subsystem is built with or without
// its event log and PC profile. Every other field is a run-only override.
func (c *Config) Structural() string {
	return fmt.Sprintf("top=%v|mem=%d|ti=%d|sig=%d|tr=%t|prof=%t",
		c.Topology, c.PhysMem, c.TimerInterval, c.SignalCost, c.TraceEvents, c.ProfilePC)
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if len(c.Topology) == 0 {
		return fmt.Errorf("core: empty topology")
	}
	for i, a := range c.Topology {
		if a < 0 || a > 62 {
			return fmt.Errorf("core: processor %d has invalid AMS count %d", i, a)
		}
	}
	if c.PhysMem == 0 || c.PhysMem%mem.PageSize != 0 {
		return fmt.Errorf("core: PhysMem %d not a positive page multiple", c.PhysMem)
	}
	if c.TimerInterval == 0 {
		return fmt.Errorf("core: TimerInterval must be positive")
	}
	return nil
}
