package core

import (
	"fmt"

	"misp/internal/fault"
	"misp/internal/isa"
	"misp/internal/mem"
	"misp/internal/obs"
	"misp/internal/snap/wire"
)

// Snapshot codec for the machine. The capture set is exactly the state
// that determines future architectural behavior and output: sequencer
// architectural state, in-flight signals and proxy requests, physical
// memory, TLBs and the fetch micro-cache (their hit/miss counters feed
// Table 1), fault-plan stream positions, and the obs subsystem.
//
// Deliberately NOT captured (host-side, rebuilt on restore):
//   - the fetch window and compiled superblock pages (pure caches;
//     refilling them changes no counter — superblocks are recompiled on
//     first fetch),
//   - the run loop's cohort scratch (initScratch sizes it; every round
//     fills what it reads) and the Oracle test seam,
//   - per-frame store generation values (beyond zero/nonzero, which
//     selects the frames to store, only the caches above consume them),
//   - pause/cancel plumbing and Wall (host-side run control),
//   - metric handles, which are re-resolved against the restored
//     registry.

// EncodeConfig writes a machine configuration in struct order.
func EncodeConfig(w *wire.Writer, c Config) {
	w.Int(len(c.Topology))
	for _, a := range c.Topology {
		w.Int(a)
	}
	w.U64(c.PhysMem)
	w.U64(c.SignalCost)
	w.U64(c.TrapCost)
	w.U64(c.YieldCost)
	w.U64(c.CtxMemCost)
	w.U64(c.WalkCost)
	w.U64(c.TimerInterval)
	w.Int(c.QuantumTicks)
	w.U64(c.TimerTickCost)
	w.U64(c.PageFaultCost)
	w.U64(c.SyscallBaseCost)
	w.U64(c.CtxSwitchCost)
	w.U64(c.AMSStateCost)
	w.U8(uint8(c.RingPolicy))
	w.Bool(c.TraceEvents)
	w.Int(c.MaxTraceEvents)
	w.Bool(c.TraceEvictOldest)
	w.Bool(c.ProfilePC)
	w.U64(c.MaxCycles)
	fault.EncodeConfig(w, c.Fault)
	w.U64(c.WatchdogHorizon)
}

// DecodeConfig reads a machine configuration.
func DecodeConfig(r *wire.Reader) (Config, error) {
	var c Config
	nt := r.Len(1 << 16)
	if nt < 0 {
		return c, r.Err()
	}
	c.Topology = make(Topology, nt)
	for i := range c.Topology {
		c.Topology[i] = r.Int()
	}
	c.PhysMem = r.U64()
	c.SignalCost = r.U64()
	c.TrapCost = r.U64()
	c.YieldCost = r.U64()
	c.CtxMemCost = r.U64()
	c.WalkCost = r.U64()
	c.TimerInterval = r.U64()
	c.QuantumTicks = r.Int()
	c.TimerTickCost = r.U64()
	c.PageFaultCost = r.U64()
	c.SyscallBaseCost = r.U64()
	c.CtxSwitchCost = r.U64()
	c.AMSStateCost = r.U64()
	c.RingPolicy = RingPolicy(r.U8())
	c.TraceEvents = r.Bool()
	c.MaxTraceEvents = r.Int()
	c.TraceEvictOldest = r.Bool()
	c.ProfilePC = r.Bool()
	c.MaxCycles = r.U64()
	fc, err := fault.DecodeConfig(r)
	if err != nil {
		return c, err
	}
	c.Fault = fc
	c.WatchdogHorizon = r.U64()
	return c, r.Err()
}

// structuralMismatch reports the first restore-time override that a
// snapshot cannot honor. These parameters were consumed while building
// the captured state — the topology and memory image are literal in the
// snapshot, kernel.New baked TimerInterval (and, via the spawn-time
// reschedule IPI, SignalCost) into timer deadlines, and the obs bus
// geometry is fixed at construction — so changing them cannot reproduce
// a cold machine with the new value.
func structuralMismatch(snap, want Config) error {
	if len(snap.Topology) != len(want.Topology) {
		return fmt.Errorf("topology %v -> %v", snap.Topology, want.Topology)
	}
	for i := range snap.Topology {
		if snap.Topology[i] != want.Topology[i] {
			return fmt.Errorf("topology %v -> %v", snap.Topology, want.Topology)
		}
	}
	switch {
	case snap.PhysMem != want.PhysMem:
		return fmt.Errorf("PhysMem %d -> %d", snap.PhysMem, want.PhysMem)
	case snap.TimerInterval != want.TimerInterval:
		return fmt.Errorf("TimerInterval %d -> %d", snap.TimerInterval, want.TimerInterval)
	case snap.SignalCost != want.SignalCost:
		return fmt.Errorf("SignalCost %d -> %d", snap.SignalCost, want.SignalCost)
	case snap.TraceEvents != want.TraceEvents:
		return fmt.Errorf("TraceEvents %v -> %v", snap.TraceEvents, want.TraceEvents)
	case snap.MaxTraceEvents != want.MaxTraceEvents:
		return fmt.Errorf("MaxTraceEvents %d -> %d", snap.MaxTraceEvents, want.MaxTraceEvents)
	case snap.TraceEvictOldest != want.TraceEvictOldest:
		return fmt.Errorf("TraceEvictOldest %v -> %v", snap.TraceEvictOldest, want.TraceEvictOldest)
	case snap.ProfilePC != want.ProfilePC:
		return fmt.Errorf("ProfilePC %v -> %v", snap.ProfilePC, want.ProfilePC)
	}
	return nil
}

func encodeCtxSnap(w *wire.Writer, c CtxSnap) {
	for _, v := range c.Regs {
		w.U64(v)
	}
	for _, v := range c.FRegs {
		w.F64(v)
	}
	w.U64(c.PC)
	w.U64(c.TP)
}

func decodeCtxSnap(r *wire.Reader) CtxSnap {
	var c CtxSnap
	for i := range c.Regs {
		c.Regs[i] = r.U64()
	}
	for i := range c.FRegs {
		c.FRegs[i] = r.F64()
	}
	c.PC = r.U64()
	c.TP = r.U64()
	return c
}

// encodeSeq writes one sequencer's architectural and timing state.
func encodeSeq(w *wire.Writer, s *Sequencer) {
	w.Int(s.ID)
	w.Int(s.ProcID)
	w.Int(s.SID)
	w.Bool(s.IsOMS)
	w.U8(uint8(s.State))
	w.U64(s.Clock)
	for _, v := range s.Regs {
		w.U64(v)
	}
	for _, v := range s.FRegs {
		w.F64(v)
	}
	w.U64(s.PC)
	w.U64(s.TP)
	w.U8(uint8(s.Ring))
	for _, v := range s.CRs {
		w.U64(v)
	}
	s.TLB.EncodeSnapshot(w)
	// The fetch micro-cache is timing-relevant: a hit bypasses the TLB
	// entirely, so its contents shape the TLB hit/miss counters.
	w.U64(s.fetchVPN)
	w.U64(s.fetchBase)
	for _, v := range s.Yield {
		w.U64(v)
	}
	w.Bool(s.InHandler)
	encodeCtxSnap(w, s.YieldSave)
	w.U64(uint64(len(s.pending)))
	for _, p := range s.pending {
		w.U64(p.TS)
		w.U64(p.SentTS)
		w.U64(p.IP)
		w.U64(p.SP)
	}
	w.U64(s.proxyFrame)
	w.Bool(s.proxyLost)
	w.Bool(s.InProxy)
	w.U64(s.TimerDeadline)
	w.Bool(s.RescheduleIPI)
	w.U64(s.stallStart)
	w.Int(s.CurTID)
	for _, v := range []uint64{
		s.C.Instrs, s.C.Syscalls, s.C.PageFaults, s.C.Timers,
		s.C.Interrupts, s.C.ProxySyscalls, s.C.ProxyPageFaults,
		s.C.ProxiedServices, s.C.RingStall, s.C.ProxyStall,
		s.C.IdleCycles, s.C.SignalsSent, s.C.SignalsReceived,
		s.C.YieldsTaken,
	} {
		w.U64(v)
	}
}

// decodeSeq restores one sequencer. The host-side fetch window starts
// cold; refilling it is counter-neutral by construction.
func decodeSeq(r *wire.Reader, id int) (*Sequencer, error) {
	s := &Sequencer{}
	s.ID = r.Int()
	if s.ID != id {
		return nil, fmt.Errorf("core: snapshot sequencer %d out of order (want %d)", s.ID, id)
	}
	s.ProcID = r.Int()
	s.SID = r.Int()
	s.IsOMS = r.Bool()
	s.State = SeqState(r.U8())
	if s.State > StateDead {
		return nil, fmt.Errorf("core: snapshot sequencer %d has invalid state %d", id, s.State)
	}
	s.Clock = r.U64()
	for i := range s.Regs {
		s.Regs[i] = r.U64()
	}
	for i := range s.FRegs {
		s.FRegs[i] = r.F64()
	}
	s.PC = r.U64()
	s.TP = r.U64()
	s.Ring = isa.Ring(r.U8())
	for i := range s.CRs {
		s.CRs[i] = r.U64()
	}
	s.TLB.DecodeSnapshot(r)
	s.fetchVPN = r.U64()
	s.fetchBase = r.U64()
	for i := range s.Yield {
		s.Yield[i] = r.U64()
	}
	s.InHandler = r.Bool()
	s.YieldSave = decodeCtxSnap(r)
	np := r.Len(1 << 20)
	if np < 0 {
		return nil, r.Err()
	}
	s.pending = make([]PendingSignal, np)
	for i := range s.pending {
		s.pending[i] = PendingSignal{TS: r.U64(), SentTS: r.U64(), IP: r.U64(), SP: r.U64()}
	}
	if np == 0 {
		s.pending = nil
	}
	s.proxyFrame = r.U64()
	s.proxyLost = r.Bool()
	s.InProxy = r.Bool()
	s.TimerDeadline = r.U64()
	s.RescheduleIPI = r.Bool()
	s.stallStart = r.U64()
	s.CurTID = r.Int()
	c := &s.C
	for _, p := range []*uint64{
		&c.Instrs, &c.Syscalls, &c.PageFaults, &c.Timers,
		&c.Interrupts, &c.ProxySyscalls, &c.ProxyPageFaults,
		&c.ProxiedServices, &c.RingStall, &c.ProxyStall,
		&c.IdleCycles, &c.SignalsSent, &c.SignalsReceived,
		&c.YieldsTaken,
	} {
		*p = r.U64()
	}
	return s, r.Err()
}

// EncodeSnapshot writes the complete machine state. The machine must be
// at a quiescent stop (between Run calls, or paused via SetPause): a
// faulted or halted machine has no future to capture. resident is
// m.Phys.Resident(), computed by the caller so it can size w from it.
func (m *Machine) EncodeSnapshot(w *wire.Writer, resident []uint32) error {
	if m.stopErr != nil {
		return fmt.Errorf("core: cannot snapshot a machine with a latched stop: %v", m.stopErr)
	}
	if m.halted {
		return fmt.Errorf("core: cannot snapshot a halted machine")
	}
	EncodeConfig(w, m.Cfg)
	m.Phys.EncodeSnapshot(w, resident)
	w.Int(len(m.Seqs))
	for _, s := range m.Seqs {
		encodeSeq(w, s)
	}
	w.Int(len(m.Procs))
	for _, p := range m.Procs {
		w.Int(p.ID)
		w.Bool(p.inRing0)
		w.Bool(p.crWritten)
		// Membership is dynamic (RebindAMS migrates AMSs between
		// processors), so each processor stores its sequencer ID list.
		w.Int(len(p.Seqs))
		for _, s := range p.Seqs {
			w.Int(s.ID)
		}
		w.Int(len(p.PendingProxy))
		for _, req := range p.PendingProxy {
			w.U64(req.TS)
			w.Int(req.AMS.ID)
			w.U64(req.FrameVA)
		}
	}
	w.U64(m.Steps)
	w.U64(m.wdNext)
	w.U64(m.wdSteps)
	w.Bool(m.flt != nil)
	if m.flt != nil {
		m.flt.plan.EncodeSnapshot(w)
	}
	m.Obs.Bus.EncodeSnapshot(w)
	m.Obs.Metrics.EncodeSnapshot(w)
	w.Bool(m.prof != nil)
	if m.prof != nil {
		m.prof.EncodeSnapshot(w)
	}
	return nil
}

// RestoreMachine rebuilds a machine from its snapshot. override, if
// non-nil, may adjust run-only configuration (cost model, limits, fault
// plane) before the machine is assembled; structural
// parameters that were consumed during construction cannot change —
// see structuralMismatch. A changed Fault configuration discards the
// captured plan state and builds a fresh plan, exactly as a cold
// machine with that configuration would.
//
// The caller must reattach an OS (SetOS) before Run; kernel state is
// restored separately by internal/kernel.
func RestoreMachine(r *wire.Reader, override func(*Config)) (*Machine, error) {
	snapCfg, err := DecodeConfig(r)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot config: %w", err)
	}
	cfg := snapCfg
	cfg.Topology = append(Topology(nil), snapCfg.Topology...)
	if override != nil {
		override(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: snapshot override: %w", err)
	}
	if err := structuralMismatch(snapCfg, cfg); err != nil {
		return nil, fmt.Errorf("core: snapshot override changes structural parameter: %v", err)
	}
	phys, err := mem.RestorePhys(r, cfg.PhysMem)
	if err != nil {
		return nil, err
	}
	mode := obs.DropNewest
	if cfg.TraceEvictOldest {
		mode = obs.EvictOldest
	}
	o := obs.New(obs.Options{
		Events:    cfg.TraceEvents,
		EventCap:  cfg.MaxTraceEvents,
		Mode:      mode,
		ProfilePC: cfg.ProfilePC,
	})
	m := &Machine{Cfg: cfg, Phys: phys, Obs: o, Trace: &Trace{bus: o.Bus}, prof: o.Prof}
	m.mx = newMachMetrics(o.Metrics)

	nSeq := r.Len(1 << 16)
	if nSeq < 0 {
		return nil, r.Err()
	}
	if nSeq != cfg.Topology.Seqs() {
		return nil, fmt.Errorf("core: snapshot has %d sequencers, topology %v wants %d",
			nSeq, cfg.Topology, cfg.Topology.Seqs())
	}
	m.Seqs = make([]*Sequencer, nSeq)
	for i := range m.Seqs {
		s, err := decodeSeq(r, i)
		if err != nil {
			return nil, err
		}
		m.Seqs[i] = s
	}
	nProc := r.Len(1 << 16)
	if nProc != len(cfg.Topology) {
		if nProc < 0 {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("core: snapshot has %d processors, topology wants %d",
			nProc, len(cfg.Topology))
	}
	seen := make([]bool, nSeq)
	for pid := 0; pid < nProc; pid++ {
		p := &Processor{ID: r.Int()}
		if p.ID != pid {
			return nil, fmt.Errorf("core: snapshot processor %d out of order (want %d)", p.ID, pid)
		}
		p.inRing0 = r.Bool()
		p.crWritten = r.Bool()
		nm := r.Len(nSeq)
		if nm < 0 {
			return nil, r.Err()
		}
		for i := 0; i < nm; i++ {
			id := r.Int()
			if id < 0 || id >= nSeq || seen[id] {
				return nil, fmt.Errorf("core: snapshot processor %d member %d invalid", pid, id)
			}
			seen[id] = true
			s := m.Seqs[id]
			if s.ProcID != pid || (i == 0) != s.IsOMS {
				return nil, fmt.Errorf("core: snapshot sequencer %d inconsistent with processor %d slot %d", id, pid, i)
			}
			p.Seqs = append(p.Seqs, s)
		}
		if len(p.Seqs) == 0 {
			return nil, fmt.Errorf("core: snapshot processor %d has no sequencers", pid)
		}
		npx := r.Len(1 << 20)
		if npx < 0 {
			return nil, r.Err()
		}
		for i := 0; i < npx; i++ {
			ts := r.U64()
			amsID := r.Int()
			frameVA := r.U64()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if amsID < 0 || amsID >= nSeq {
				return nil, fmt.Errorf("core: snapshot proxy request references sequencer %d", amsID)
			}
			p.PendingProxy = append(p.PendingProxy, ProxyReq{
				TS: ts, AMS: m.Seqs[amsID], FrameVA: frameVA,
			})
		}
		m.Procs = append(m.Procs, p)
	}
	for id, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("core: snapshot sequencer %d not owned by any processor", id)
		}
	}
	m.Steps = r.U64()
	m.wdNext = r.U64()
	m.wdSteps = r.U64()
	hadPlan := r.Bool()
	if hadPlan {
		plan, err := fault.RestorePlan(r)
		if err != nil {
			return nil, err
		}
		if cfg.Fault != snapCfg.Fault {
			// The override replaced the fault configuration: discard the
			// captured schedule and start the new plan from its origin, as
			// a cold machine would.
			plan = fault.NewPlan(cfg.Fault)
		}
		if plan != nil {
			m.flt = &fltState{plan: plan, injected: o.Metrics.Counter(obs.MFaultInjected)}
		}
	} else if cfg.Fault != snapCfg.Fault {
		if plan := fault.NewPlan(cfg.Fault); plan != nil {
			m.flt = &fltState{plan: plan, injected: o.Metrics.Counter(obs.MFaultInjected)}
		}
	}
	m.wdHorizon = cfg.WatchdogHorizon
	if m.wdHorizon == 0 && m.flt != nil {
		m.wdHorizon = 8 * cfg.TimerInterval
	}
	if err := o.Bus.DecodeSnapshot(r); err != nil {
		return nil, err
	}
	if err := o.Metrics.DecodeSnapshot(r); err != nil {
		return nil, err
	}
	hadProf := r.Bool()
	if hadProf != (o.Prof != nil) {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("core: snapshot profile presence %v disagrees with config", hadProf)
	}
	if hadProf {
		if err := o.Prof.DecodeSnapshot(r); err != nil {
			return nil, err
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	m.initScratch()
	return m, nil
}
