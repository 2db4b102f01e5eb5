// Package obs is the simulator's observability subsystem: a typed,
// allocation-conscious event bus, a metrics registry (counters and
// cycle-bucketed histograms), a Chrome trace-event exporter, and a
// per-PC cycle profiler.
//
// It generalizes the prototype firmware's time-stamped event log and
// per-sequencer counters (paper §4.1) into a first-class subsystem that
// downstream tools — the experiment drivers in internal/exp and the run
// files cmd/mispsim and the serve daemon write — consume directly. The
// package has no dependency on the machine; internal/core emits into it.
package obs

// Kind classifies fine-grained firmware and kernel events. The values
// mirror the prototype's event log record types (§4.1).
type Kind uint8

const (
	KRingEnter Kind = iota
	KRingExit
	KSuspendAMS
	KResumeAMS
	KSignalSend
	KSignalStart
	KProxyRequest
	KProxyDeliver
	KProxyDone
	KYield
	KSret
	KCtxSwitch
	KProcExit
	KKernel
	KRebind
	// Fault plane (internal/fault): an injected fault, the kernel (or
	// watchdog) noticing one, and a completed recovery action.
	KFaultInject
	KFaultDetect
	KFaultRecover
	NumKinds
)

var kindNames = [NumKinds]string{
	"ring-enter", "ring-exit", "suspend-ams", "resume-ams",
	"signal-send", "signal-start", "proxy-request", "proxy-deliver",
	"proxy-done", "yield", "sret", "ctx-switch", "proc-exit", "kernel",
	"rebind-ams", "fault-inject", "fault-detect", "fault-recover",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "event?"
}

// Event is one time-stamped log record. TS is the emitting sequencer's
// local cycle clock; Seq is the machine-global sequencer ID; A and B
// are kind-specific payloads (trap cause, target sequencer, addresses).
type Event struct {
	TS   uint64
	Seq  int32
	Kind Kind
	A, B uint64
}

// EventCap bounds the event buffer. A run that emits more keeps the
// head of its log and counts the rest as dropped — the prototype's
// semantics. No evaluated run comes near it.
const EventCap = 1 << 16

// Bus is the event log: a bounded buffer of events plus per-kind
// counters. The disabled emit path is a single branch with no
// allocation.
type Bus struct {
	enabled bool
	max     int // EventCap; a field so in-package tests can shrink it

	buf     []Event
	dropped uint64

	kindCount [NumKinds]uint64
}

// NewBus creates a bus holding at most EventCap events.
func NewBus(enabled bool) *Bus {
	return &Bus{enabled: enabled, max: EventCap}
}

// Enabled reports whether the bus records events.
func (b *Bus) Enabled() bool { return b.enabled }

// Emit records one event. Hot path: when the bus is disabled this is a
// single branch; when enabled and the buffer is at capacity it performs
// no allocation.
func (b *Bus) Emit(e Event) {
	if !b.enabled {
		return
	}
	if e.Kind < NumKinds {
		b.kindCount[e.Kind]++
	}
	if len(b.buf) < b.max {
		b.buf = append(b.buf, e)
		return
	}
	b.dropped++
}

// Len returns the number of buffered events.
func (b *Bus) Len() int { return len(b.buf) }

// Events returns the buffered events in emission order; the returned
// slice must not be mutated while the bus is still emitting.
func (b *Bus) Events() []Event { return b.buf }

// Dropped returns the number of emitted events not present in the
// buffer (all emitted after it filled). A non-zero value means the
// buffer holds the head of the run, not the whole run.
func (b *Bus) Dropped() uint64 { return b.dropped }

// KindCount returns how many events of kind k were emitted — counted at
// emission, so it is exact even when the buffer dropped events, and
// O(1) instead of the former scan over the log.
func (b *Bus) KindCount(k Kind) uint64 {
	if k >= NumKinds {
		return 0
	}
	return b.kindCount[k]
}

// Options configures an Observer.
type Options struct {
	// Events enables the fine-grained event log.
	Events bool
	// ProfilePC enables the per-PC cycle profile (hot-spot report).
	ProfilePC bool
}

// Observer bundles the subsystem: one event bus, one metrics registry,
// and an optional PC profile. Each simulated machine owns exactly one.
type Observer struct {
	Bus     *Bus
	Metrics *Registry
	// Prof is nil unless Options.ProfilePC was set.
	Prof *Profile
}

// New builds an observer. The metrics registry is always live — its
// counters are plain increments and are part of the machine's standard
// accounting; only the event log and profile are optional.
func New(opt Options) *Observer {
	o := &Observer{
		Bus:     NewBus(opt.Events),
		Metrics: NewRegistry(),
	}
	if opt.ProfilePC {
		o.Prof = NewProfile()
	}
	return o
}

// Emit records one event on the bus.
func (o *Observer) Emit(ts uint64, seq int, k Kind, a, b uint64) {
	o.Bus.Emit(Event{TS: ts, Seq: int32(seq), Kind: k, A: a, B: b})
}

// Canonical metric names. internal/core and internal/kernel publish
// their own counts (per-sequencer counters, kernel Stats) under these
// names at every run exit; cycles.priv, the histograms and fault.* are
// written live. Exporters read them back by name.
const (
	// Serializing events by cause, summed over OMSs (Table 1's OMS
	// columns).
	MOMSSyscalls   = "oms.syscalls"
	MOMSPageFaults = "oms.page_faults"
	MOMSTimers     = "oms.timers"
	MOMSInterrupts = "oms.interrupts"
	// Ring transitions taken while re-executing AMS instructions under
	// PROXYEXEC (excluded from the OMS columns, as in Table 1).
	MOMSProxied = "oms.proxied_services"

	// Proxy-execution requests by cause, summed over AMSs (Table 1's
	// AMS columns).
	MAMSProxySyscalls   = "ams.proxy_syscalls"
	MAMSProxyPageFaults = "ams.proxy_page_faults"

	// Per-ring cycle attribution. Priv accumulates per ring-0 episode;
	// the remaining totals are finalized at end of run.
	MCyclesPriv       = "cycles.priv"
	MCyclesUser       = "cycles.user"
	MCyclesIdle       = "cycles.idle"
	MCyclesRingStall  = "cycles.ring_stall"
	MCyclesProxyStall = "cycles.proxy_stall"
	MCyclesTotal      = "cycles.total"
	MInstrs           = "instrs.retired"

	// Latency histograms (cycles) for the quantities the paper
	// measures: SIGNAL send-to-start latency (§2.4), proxy-execution
	// round trip (§2.5, Equations 2–3), and per-episode AMS stall under
	// ring-transition serialization (§2.3, Equation 1).
	MSignalLatency = "signal.start_latency_cycles"
	MProxyRTT      = "proxy.round_trip_cycles"
	MRingStall     = "ring.suspend_stall_cycles"

	// Kernel scheduler activity.
	MKTicks      = "kernel.ticks"
	MKSyscalls   = "kernel.syscalls"
	MKPageFaults = "kernel.page_faults"
	MKIPIs       = "kernel.ipis"
	MKSwitches   = "kernel.ctx_switches"
	MKRebinds    = "kernel.rebinds"

	// Host section (excluded from dumps and snapshots; see hostPrefix):
	// superblock compiled-page cache activity in the fast loop — pages
	// compiled, pages invalidated by stores or translation changes, and
	// entries into the compiled-path executors — and the spin loops it
	// fast-forwarded: the fixed-point skips and the counted-spin skips,
	// each with the instructions they retired.
	MSBBuilds      = "host.superblock.builds"
	MSBInvalidates = "host.superblock.invalidates"
	MSBRuns        = "host.superblock.block_runs"
	MSBSpinSkips   = "host.superblock.spin_skips"
	MSBSpinInstrs  = "host.superblock.spin_instrs"
	MSBCountSkips  = "host.superblock.count_skips"
	MSBCountInstrs = "host.superblock.count_instrs"

	// Host section: the bytes of host memory backing the simulated
	// physical memory (mem.Phys.Backed), which follow the highest frame
	// the run reached rather than the configured size.
	MMemBacking = "host.mem.backing_bytes"

	// Fault plane: injections performed by the plan, faults detected by
	// the kernel health check or core watchdog, recoveries completed,
	// and the detection-to-recovery latency histogram (cycles).
	MFaultInjected    = "fault.injected"
	MFaultDetected    = "fault.detected"
	MFaultRecovered   = "fault.recovered"
	MFaultRecoveryLat = "fault.recovery_latency_cycles"
)
