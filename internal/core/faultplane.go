package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"misp/internal/fault"
	"misp/internal/isa"
	"misp/internal/obs"
)

// This file wires the deterministic fault-injection plane
// (internal/fault) and the livelock watchdog into the machine. The
// plan is consulted at exactly three architectural points — instruction
// retirement, SIGNAL issue, proxy-request issue — which both execution
// loops visit in the same order with the same clocks, so a given seed
// produces a byte-identical fault schedule under the legacy and the
// fast loop (difftested in faultplane_test.go). With no plan attached
// the hot paths pay a single nil check.

// initFaultPlane constructs the machine's injection plan and watchdog
// horizon from its Config (called by assemble; lives here because the
// core package's internal page-fault type shadows the fault package name
// in the files that use it).
func (m *Machine) initFaultPlane() {
	m.plan = fault.NewPlan(m.Cfg.Fault)
	m.wdHorizon = m.Cfg.WatchdogHorizon
	if m.plan != nil {
		// Registered so every dump and image of a faulted machine lists
		// it, at zero before the first run; FinalizeMetrics sets it.
		m.Obs.Metrics.Counter(obs.MFaultInjected)
		if m.wdHorizon == 0 {
			m.wdHorizon = 8 * m.Cfg.TimerInterval
		}
	}
}

// FaultPlan returns the attached injection plan, or nil when the fault
// plane is disabled.
func (m *Machine) FaultPlan() *fault.Plan { return m.plan }

// injectRetire consults the plan after one retired instruction on s and
// applies at most one injection. It returns true when a fault was
// injected; the fast loop then ends the batch (like a break op) so the
// event heap observes any state change, matching the legacy loop's
// per-instruction re-selection.
func (m *Machine) injectRetire(s *Sequencer) bool {
	k, arg, ok := m.plan.OnRetire(!s.IsOMS)
	if !ok {
		return false
	}
	switch k {
	case fault.AMSStall:
		// A transient freeze: the sequencer makes no progress for the
		// configured window. Rendered as a clock jump — in a
		// discrete-event machine "frozen for N cycles" and "its next
		// event is N cycles out" are the same statement.
		s.Clock += m.plan.StallCycles()
	case fault.AMSKill:
		s.State = StateDead
		s.stallStart = s.Clock
	case fault.SpuriousYield:
		m.spuriousYield(s)
	case fault.TLBFlush:
		s.flushTranslation()
	case fault.TLBCorrupt:
		s.TLB.CorruptWritable(arg)
	case fault.MemBitFlip:
		m.Phys.FlipBit(arg, uint(arg>>56))
	}
	m.Obs.Emit(s.Clock, s.ID, obs.KFaultInject, uint64(k), arg)
	return true
}

// spuriousYield fires a registered yield condition with no event behind
// it (argument registers zero) — the paper's YIELD-CONDITIONAL
// machinery invoked on a phantom trigger. Suppressed (the draw is still
// consumed, keeping the schedule deterministic) when the sequencer
// cannot architecturally take a yield: ring 0, already in a handler,
// mid-proxy, or no handler registered.
func (m *Machine) spuriousYield(s *Sequencer) {
	if s.Ring != isa.Ring3 || s.InHandler || s.InProxy {
		return
	}
	sc := isa.ScenarioProxy
	if s.Yield[sc] == 0 {
		sc = isa.ScenarioSignal
		if s.Yield[sc] == 0 {
			return
		}
	}
	m.yieldTo(s, sc, 0, 0)
}

// signalFault consults the plan at a SIGNAL issue (firmware.go cannot
// name the fault package — the core-internal page-fault type shadows
// it). It reports whether the signal is dropped and any extra
// visibility delay, and emits the injection.
func (m *Machine) signalFault(s *Sequencer, ip uint64) (drop bool, extra uint64) {
	op, delay := m.plan.OnSignal()
	if op == fault.SignalOK {
		return false, 0
	}
	k := fault.SignalDrop
	if op == fault.SignalDelayed {
		k = fault.SignalDelay
	}
	m.Obs.Emit(s.Clock, s.ID, obs.KFaultInject, uint64(k), ip)
	return op == fault.SignalDropped, delay
}

// proxyFault consults the plan at a proxy-request issue. When it fires
// the request is lost in flight: the AMS is marked ProxyLost for the
// kernel health check to find.
func (m *Machine) proxyFault(ams *Sequencer, frameVA uint64) bool {
	if !m.plan.OnProxyRequest() {
		return false
	}
	ams.proxyLost = true
	ams.stallStart = ams.Clock // recovery-latency anchor
	m.Obs.Emit(ams.Clock, ams.ID, obs.KFaultInject, uint64(fault.ProxyDrop), frameVA)
	return true
}

// RecoverLostProxy re-posts a proxy request the fault plane dropped in
// flight (the kernel health check detects the stranded AMS via
// ProxyLost and calls this from the timer tick). The request becomes
// visible one signal latency after now, exactly like the original.
func (m *Machine) RecoverLostProxy(ams *Sequencer, now uint64) {
	if ams.State != StateWaitProxy || !ams.proxyLost {
		return
	}
	ams.proxyLost = false
	proc := m.Proc(ams)
	proc.PendingProxy = append(proc.PendingProxy, ProxyReq{
		TS:      now + m.Cfg.SignalCost,
		AMS:     ams,
		FrameVA: ams.proxyFrame,
	})
}

// TakePendingSignals removes and returns a dead sequencer's queued
// ingress continuations so the kernel can requeue them on live
// sequencers. Returns nil for live sequencers.
func (m *Machine) TakePendingSignals(s *Sequencer) []PendingSignal {
	if s.State != StateDead || len(s.pending) == 0 {
		return nil
	}
	p := s.pending
	s.pending = nil
	return p
}

// EncodeCtxFrame renders a context snapshot in the architectural
// SAVECTX frame layout (trap and info words zero). The kernel uses it
// to materialize a reclaimed shred context in guest memory so a live
// sequencer can LDCTX it.
func EncodeCtxFrame(c CtxSnap) []byte {
	buf := make([]byte, isa.CtxSize)
	for i := 0; i < isa.NumRegs; i++ {
		binary.LittleEndian.PutUint64(buf[isa.CtxRegs+i*8:], c.Regs[i])
		binary.LittleEndian.PutUint64(buf[isa.CtxFRegs+i*8:], math.Float64bits(c.FRegs[i]))
	}
	binary.LittleEndian.PutUint64(buf[isa.CtxPC:], c.PC)
	binary.LittleEndian.PutUint64(buf[isa.CtxTP:], c.TP)
	return buf
}

// watchdogTick is the core progress monitor, run at the end of every
// kernel episode (a point both loops visit identically). If the
// machine clock advances a full horizon with zero instructions retired
// machine-wide, the run is livelocked — every sequencer is parked,
// spinning in delivery limbo, or dead while timers tick — and the run
// stops with a structured Diagnosis.
func (m *Machine) watchdogTick(now uint64) {
	if now < m.wdNext {
		return
	}
	if m.wdNext == 0 || m.Steps != m.wdSteps {
		m.wdSteps = m.Steps
		m.wdNext = now + m.wdHorizon
		return
	}
	m.wdTrips++
	m.Obs.Emit(now, 0, obs.KFaultDetect, uint64(fault.NumKinds), m.wdHorizon)
	m.stopErr = m.Diagnose(fault.ReasonLivelock, fmt.Errorf(
		"core: livelock — clock advanced %d cycles with no instruction retired (cycle %d)",
		m.wdHorizon, now))
}

// WatchdogTrips returns the livelocks the watchdog detected: at most
// one, since a trip stops the run.
func (m *Machine) WatchdogTrips() uint64 { return m.wdTrips }

// deadlockDiag builds the structured abort for the no-runnable-
// sequencer condition (both run loops share it).
func (m *Machine) deadlockDiag() error {
	return m.Diagnose(fault.ReasonDeadlock, fmt.Errorf(
		"core: deadlock — no runnable sequencer and no pending event (cycle %d)", m.MaxClock()))
}

// cycleLimitDiag builds the structured abort for a MaxCycles overrun.
func (m *Machine) cycleLimitDiag() error {
	return m.Diagnose(fault.ReasonCycleLimit, fmt.Errorf(
		"core: cycle limit %d exceeded", m.cycLimit))
}

// Diagnose upgrades err into a fault.Diagnosis carrying the machine's
// full post-mortem: per-sequencer IP/ring/state, event-queue view,
// pending signals and proxies, the injection schedule so far, and the
// tail of the obs event stream. Harnesses also call it directly to
// structure kernel faults and silent-corruption verdicts.
func (m *Machine) Diagnose(reason string, err error) error {
	d := &fault.Diagnosis{
		Reason: reason,
		Cycle:  m.MaxClock(),
		Instrs: m.Steps,
		Err:    err,
	}
	for _, s := range m.Seqs {
		sd := fault.SeqDiag{
			ID:         s.ID,
			Name:       s.Name(),
			State:      s.State.String(),
			Ring:       int(s.Ring),
			PC:         s.PC,
			Clock:      s.Clock,
			InHandler:  s.InHandler,
			InProxy:    s.InProxy,
			Pending:    len(s.pending),
			ProxyFrame: s.proxyFrame,
			CurTID:     s.CurTID,
		}
		if t, ok := m.nextEventTime(s); ok {
			sd.NextEvent, sd.HasEvent = t, true
		}
		d.Seqs = append(d.Seqs, sd)
	}
	for _, p := range m.Procs {
		for _, r := range p.PendingProxy {
			d.Proxies = append(d.Proxies, fault.ProxyDiag{
				Proc: p.ID, AMS: r.AMS.ID, TS: r.TS, FrameVA: r.FrameVA,
			})
		}
	}
	if m.plan != nil {
		d.Log = m.plan.Log()
	}
	evs := m.Obs.Bus.Events()
	if len(evs) > fault.DiagEventTail {
		evs = evs[len(evs)-fault.DiagEventTail:]
	}
	d.Events = append(d.Events, evs...)
	return d
}
