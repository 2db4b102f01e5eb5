package core

import (
	"fmt"

	"misp/internal/isa"
	"misp/internal/mem"
	"misp/internal/obs"
)

// SeqState is the execution state of a sequencer.
type SeqState uint8

const (
	// StateIdle: an AMS with no shred assigned (awaiting SIGNAL), or an
	// OMS with no runnable thread (kernel idle).
	StateIdle SeqState = iota
	// StateRunning: fetching and executing instructions.
	StateRunning
	// StateSuspendRing: an AMS parked by the OMS's ring 3→0 transition;
	// resumed when the OMS returns to ring 3 (§2.3).
	StateSuspendRing
	// StateWaitProxy: an AMS that hit a proxy-triggering condition and
	// is waiting for the OMS to complete proxy execution (§2.5).
	StateWaitProxy
	// StateDead: an AMS permanently killed by the fault plane (AMSKill).
	// It never retires again; the kernel's health check reclaims its
	// shred context and requeues the work on a live sequencer.
	StateDead
)

func (s SeqState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateRunning:
		return "running"
	case StateSuspendRing:
		return "suspend-ring"
	case StateWaitProxy:
		return "wait-proxy"
	case StateDead:
		return "dead"
	}
	return "state?"
}

// PendingSignal is an in-flight inter-sequencer signal: a shred
// continuation (IP, SP) that becomes visible at time TS. SentTS records
// the sender's clock at the SIGNAL instruction, so the obs subsystem
// can attribute the full send-to-start latency (§2.4).
type PendingSignal struct {
	TS     uint64
	SentTS uint64
	IP, SP uint64
}

// CtxSnap is a full ring-3 context snapshot, used by the hidden
// YIELD-CONDITIONAL save slot and by the kernel's thread switching.
type CtxSnap struct {
	Regs  [isa.NumRegs]uint64
	FRegs [isa.NumRegs]float64
	PC    uint64
	TP    uint64
}

// SeqCounters are the coarse-grained per-sequencer event counters that
// the prototype firmware exposes (§4.1); Table 1 is produced from them.
type SeqCounters struct {
	Instrs uint64 // instructions retired

	// OMS serializing events by cause (ring 3→0 transitions).
	Syscalls   uint64
	PageFaults uint64
	Timers     uint64
	Interrupts uint64

	// AMS proxy-execution requests by cause.
	ProxySyscalls   uint64
	ProxyPageFaults uint64

	// ProxiedServices counts ring transitions taken by this OMS while
	// re-executing AMS instructions under PROXYEXEC. Table 1's OMS
	// columns exclude these (they originate on the AMSs).
	ProxiedServices uint64

	// Stall accounting (cycles).
	RingStall  uint64 // parked by OMS ring transitions
	ProxyStall uint64 // waiting for proxy completion
	IdleCycles uint64 // idle (no shred / no thread)

	SignalsSent     uint64
	SignalsReceived uint64
	YieldsTaken     uint64 // handler invocations via YIELD-CONDITIONAL
}

// Sequencer is one hardware thread context: the architectural resource
// the MISP ISA exposes (§2.1). A sequencer fetches and executes one
// instruction stream.
type Sequencer struct {
	ID     int // machine-global index
	ProcID int // owning MISP processor
	SID    int // logical sequencer ID within the processor (0 = OMS)
	IsOMS  bool

	State SeqState
	Clock uint64 // local cycle counter

	// Architectural ring-3 state.
	Regs  [isa.NumRegs]uint64
	FRegs [isa.NumRegs]float64
	PC    uint64
	TP    uint64 // thread pointer (TLS base; travels with the context)
	Ring  isa.Ring

	// Ring-0 state (OMS only; AMSs receive CR updates on resume).
	CRs [isa.NumCRs]uint64

	TLB mem.TLB
	// Fetch micro-cache: last translated code page.
	fetchVPN  uint64 // vpn+1; 0 invalid
	fetchBase uint64 // physical base of that page

	// Fetch window: when valid, winVA is the virtual base of the code
	// page the sequencer last fetched from, winGen points at its physical
	// frame's store-generation counter, and sb is the page's compiled
	// micro-op view (superblock.go) — the only decoded form the fast loop
	// keeps. All three are host-side derived state, never serialized. The
	// window is valid exactly when
	//
	//	winGen != nil && sb != nil && *winGen == sb.gen
	//
	// so the common fetch (same page, no intervening store) is a handful
	// of inlined compares. fetchSlow re-points winVA/winGen/sb together
	// on every window miss; translation invalidation nils winGen (so does
	// PROXYEXEC's re-execution, which moves the fetch micro-cache without
	// the window), a store into the page (any sequencer, or a kernel copy)
	// bumps *winGen past sb.gen, and sb stays nil for a blacklisted
	// self-modifying page — each sends the next fetch back through
	// fetchSlow.
	winVA  uint64
	winGen *uint32
	sb     *sbPage

	// YIELD-CONDITIONAL scenario table: handler addresses (0 = none).
	Yield [isa.NumScenarios]uint64
	// InHandler marks execution inside a yield/proxy handler; further
	// deliveries are deferred until SRET.
	InHandler bool
	YieldSave CtxSnap // hidden save slot for the interrupted shred

	pending []PendingSignal // in-flight ingress signals

	// proxyFrame is the save-area VA of the in-flight proxy context
	// while in StateWaitProxy.
	proxyFrame uint64
	// proxyLost marks that the fault plane dropped this AMS's proxy
	// request in flight: the AMS parked in StateWaitProxy but the OMS's
	// pending-proxy queue never saw the request. The kernel health check
	// detects the flag and re-posts the request (RecoverLostProxy).
	proxyLost bool
	// InProxy marks an OMS currently re-executing a proxied instruction
	// (PROXYEXEC). The kernel must not block or context-switch the
	// thread while this is set.
	InProxy bool

	// TimerDeadline is the next timer interrupt (OMS only; 0 = unset).
	TimerDeadline uint64
	// RescheduleIPI marks that the next timer firing is actually a
	// reschedule IPI from another OMS's kernel (counted as an Interrupt
	// serializing event rather than a Timer one).
	RescheduleIPI bool

	// stallStart records when this AMS stopped making progress
	// (ring suspension or proxy wait), for stall accounting.
	stallStart uint64

	// CurTID is the kernel's bookkeeping of which thread occupies this
	// sequencer (0 = none). The kernel owns this field.
	CurTID int

	C SeqCounters
}

// StallStart returns when this sequencer last stopped making progress
// (ring suspension, proxy wait, or fault-plane stall) — the kernel
// health check reads it to age stuck AMSs.
func (s *Sequencer) StallStart() uint64 { return s.stallStart }

// ProxyLost reports whether this AMS's in-flight proxy request was
// dropped by the fault plane (see RecoverLostProxy).
func (s *Sequencer) ProxyLost() bool { return s.proxyLost }

// Name returns a short identifier like "p0.oms" or "p1.ams2".
func (s *Sequencer) Name() string {
	if s.IsOMS {
		return fmt.Sprintf("p%d.oms", s.ProcID)
	}
	return fmt.Sprintf("p%d.ams%d", s.ProcID, s.SID)
}

// SerializingEvents returns the total OMS serializing-event count
// (Table 1's OMS columns summed).
func (c *SeqCounters) SerializingEvents() uint64 {
	return c.Syscalls + c.PageFaults + c.Timers + c.Interrupts
}

// ProxyEvents returns the total AMS proxy-request count.
func (c *SeqCounters) ProxyEvents() uint64 {
	return c.ProxySyscalls + c.ProxyPageFaults
}

// Add accumulates o into c, field by field.
func (c *SeqCounters) Add(o *SeqCounters) {
	c.Instrs += o.Instrs
	c.Syscalls += o.Syscalls
	c.PageFaults += o.PageFaults
	c.Timers += o.Timers
	c.Interrupts += o.Interrupts
	c.ProxySyscalls += o.ProxySyscalls
	c.ProxyPageFaults += o.ProxyPageFaults
	c.ProxiedServices += o.ProxiedServices
	c.RingStall += o.RingStall
	c.ProxyStall += o.ProxyStall
	c.IdleCycles += o.IdleCycles
	c.SignalsSent += o.SignalsSent
	c.SignalsReceived += o.SignalsReceived
	c.YieldsTaken += o.YieldsTaken
}

// namedCount is one count and the registry counter it is published to.
type namedCount struct {
	name string
	v    uint64
}

// table1 pairs each of Table 1's registry counters with its count in c.
func (c *SeqCounters) table1() [7]namedCount {
	return [7]namedCount{
		{obs.MOMSSyscalls, c.Syscalls},
		{obs.MOMSPageFaults, c.PageFaults},
		{obs.MOMSTimers, c.Timers},
		{obs.MOMSInterrupts, c.Interrupts},
		{obs.MOMSProxied, c.ProxiedServices},
		{obs.MAMSProxySyscalls, c.ProxySyscalls},
		{obs.MAMSProxyPageFaults, c.ProxyPageFaults},
	}
}

// SnapshotCtx captures the sequencer's ring-3 context.
func (s *Sequencer) SnapshotCtx() CtxSnap {
	return CtxSnap{Regs: s.Regs, FRegs: s.FRegs, PC: s.PC, TP: s.TP}
}

// RestoreCtx installs a ring-3 context.
func (s *Sequencer) RestoreCtx(c CtxSnap) {
	s.Regs, s.FRegs, s.PC, s.TP = c.Regs, c.FRegs, c.PC, c.TP
}

// flushTranslation drops all cached translations (TLB + fetch cache +
// fetch window).
func (s *Sequencer) flushTranslation() {
	s.TLB.Flush()
	s.fetchVPN = 0
	s.winGen = nil
}

// queueSignal enqueues an ingress continuation sent at sent, visible at
// ts.
func (s *Sequencer) queueSignal(sent, ts, ip, sp uint64) {
	s.pending = append(s.pending, PendingSignal{TS: ts, SentTS: sent, IP: ip, SP: sp})
}

// nextPending returns the earliest pending signal and its index, or
// index -1 if none.
func (s *Sequencer) nextPending() (PendingSignal, int) {
	best := -1
	for i, p := range s.pending {
		if best < 0 || p.TS < s.pending[best].TS {
			best = i
		}
	}
	if best < 0 {
		return PendingSignal{}, -1
	}
	return s.pending[best], best
}

// handledPending is nextPending for a running sequencer's ScenarioSignal
// handler: -1 when none is registered or a handler is already running.
func (s *Sequencer) handledPending() (PendingSignal, int) {
	if s.InHandler || s.Yield[isa.ScenarioSignal] == 0 {
		return PendingSignal{}, -1
	}
	return s.nextPending()
}

func (s *Sequencer) dropPending(i int) {
	s.pending = append(s.pending[:i], s.pending[i+1:]...)
}
