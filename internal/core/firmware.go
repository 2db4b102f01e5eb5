package core

import (
	"fmt"

	"misp/internal/isa"
	"misp/internal/obs"
)

// This file implements the MISP firmware: the machinery behind the
// paper's architectural mechanisms — ring-transition serialization
// (§2.3), inter-sequencer signaling (§2.4), and proxy execution (§2.5).

// fault dispatch: an OMS trap enters the kernel through the ring
// transition protocol; an AMS trap becomes a proxy request.
func (m *Machine) dispatchFault(s *Sequencer, f *trapFault) {
	if s.IsOMS {
		m.kernelTrap(s, f.trap, f.info)
	} else {
		m.proxyRequest(s, f)
	}
}

// kernelTrap performs a complete OMS ring 3→0→3 episode: count the
// serializing event, suspend the AMSs per policy, run the kernel,
// resume the AMSs (Equation 1: serialize = 2·signal + priv).
func (m *Machine) kernelTrap(s *Sequencer, trap isa.Trap, info uint64) {
	switch {
	case s.InProxy:
		// Ring transitions on behalf of an AMS (proxy re-execution) are
		// accounted to the AMS's proxy counters, not the OMS's own
		// serializing-event columns (Table 1 separates the two).
		s.C.ProxiedServices++
	case trap == isa.TrapSyscall:
		s.C.Syscalls++
	case trap == isa.TrapPageFault:
		s.C.PageFaults++
	case trap == isa.TrapTimer:
		s.C.Timers++
	default:
		// Interrupts, and fatal conditions (GP, divide by zero, bad
		// instruction, break), which also serialize and are bucketed
		// with them.
		s.C.Interrupts++
	}
	proc := m.Proc(s)
	m.Obs.Emit(s.Clock, s.ID, obs.KRingEnter, uint64(trap), info)
	t0 := s.Clock
	s.Clock += TrapCost
	proc.inRing0 = true
	proc.crWritten = false
	if m.Cfg.RingPolicy == RingSuspendAll {
		m.suspendAMSs(proc, t0)
	}
	s.Ring = isa.Ring0
	m.os.HandleTrap(s, trap, info)
	s.Ring = isa.Ring3
	s.Clock += TrapCost
	// The episode's full cost on the OMS — both ring crossings plus the
	// kernel service time the OS charged — is the `priv` term of
	// Equation 1; attribute it to the privileged-cycle account.
	m.mx.privCycles.Add(s.Clock - t0)
	m.resumeAMSs(proc)
	proc.inRing0 = false
	m.Obs.Emit(s.Clock, s.ID, obs.KRingExit, uint64(trap), 0)
	// The kernel may have mutated any sequencer (context switches, IPIs,
	// timer re-arming, thread exits) or finished the run: the fast loop's
	// round is void.
	m.kernelEntered = true
	// The watchdog runs at the end of every kernel episode — a point both
	// execution loops visit with identical clocks, so livelock detection
	// is bit-reproducible across loops.
	if m.wdHorizon != 0 && m.stopErr == nil {
		m.watchdogTick(s.Clock)
	}
}

// suspendAMSs parks every running AMS of proc. Each AMS observes the
// suspend signal at t0 + SignalCost; work it would have done before
// that point is deferred until resume (a conservative, deterministic
// rendering of the paper's suspend protocol).
func (m *Machine) suspendAMSs(proc *Processor, t0 uint64) {
	due := t0 + m.Cfg.SignalCost
	for _, a := range proc.AMSs() {
		if a.State != StateRunning {
			continue
		}
		if due > a.Clock {
			a.Clock = due
		}
		a.State = StateSuspendRing
		a.stallStart = a.Clock
		m.Obs.Emit(a.Clock, a.ID, obs.KSuspendAMS, 0, 0)
	}
}

// resumeAMSs resumes ring-suspended AMSs after the OMS returns to
// ring 3, synchronizing ring-0 control state (§2.3). TLBs are flushed
// only if a paging control register was written — matching IA-32's
// CR3-write purge semantics.
func (m *Machine) resumeAMSs(proc *Processor) {
	oms := proc.OMS()
	due := oms.Clock + m.Cfg.SignalCost
	for _, a := range proc.AMSs() {
		if a.State != StateSuspendRing {
			continue
		}
		if due > a.Clock {
			a.Clock = due
		}
		a.C.RingStall += a.Clock - a.stallStart
		m.mx.ringStall.Observe(a.Clock - a.stallStart)
		a.CRs = oms.CRs
		if proc.crWritten {
			a.flushTranslation()
		}
		a.State = StateRunning
		m.Obs.Emit(a.Clock, a.ID, obs.KResumeAMS, 0, 0)
	}
}

// NotifyCRWrite must be called by the kernel whenever it changes a
// paging control register (CR3) for the thread running on oms. Under
// the monitor-CR policy this is the moment the speculating AMSs must
// stop (§2.3's aggressive alternative).
func (m *Machine) NotifyCRWrite(oms *Sequencer) {
	proc := m.Proc(oms)
	proc.crWritten = true
	oms.flushTranslation()
	if m.Cfg.RingPolicy == RingMonitorCR && proc.inRing0 {
		m.suspendAMSs(proc, oms.Clock)
	}
}

// proxyRequest implements the AMS side of proxy execution (§2.5): the
// firmware saves the faulting context to the sequencer's save area and
// relays a user-level fault signal to the OMS (Equation 2's first
// signal).
func (m *Machine) proxyRequest(ams *Sequencer, f *trapFault) {
	switch f.trap {
	case isa.TrapSyscall:
		ams.C.ProxySyscalls++
	default:
		// Page faults and fatal conditions. (Fatal conditions still ride
		// the proxy path: the OMS re-executes and the kernel kills the
		// process — the AMS is architecturally unable to reach ring 0.)
		ams.C.ProxyPageFaults++
	}
	frameVA := FrameVA(ams.ID)
	ams.Clock += uint64(isa.Lookup(isa.OpSavectx).Cost) + CtxMemCost
	if ff := m.writeCtxFrame(ams, frameVA, ams.PC, f); ff != nil {
		m.fatalf("core: %s: proxy save area 0x%x unmapped (runtime must prefault it): trap %v",
			ams.Name(), frameVA, ff.trap)
		return
	}
	ams.State = StateWaitProxy
	ams.stallStart = ams.Clock
	ams.proxyFrame = frameVA
	ams.C.SignalsSent++
	proc := m.Proc(ams)
	if m.plan != nil && m.proxyFault(ams, frameVA) {
		// The request is lost in flight: the AMS parks awaiting an OMS
		// that never heard from it. The kernel health check spots the
		// ProxyLost flag on a timer tick and re-posts (RecoverLostProxy).
		m.Obs.Emit(ams.Clock, ams.ID, obs.KProxyRequest, uint64(f.trap), f.info)
		return
	}
	proc.PendingProxy = append(proc.PendingProxy, ProxyReq{
		TS:      ams.Clock + m.Cfg.SignalCost,
		AMS:     ams,
		FrameVA: frameVA,
	})
	m.Obs.Emit(ams.Clock, ams.ID, obs.KProxyRequest, uint64(f.trap), f.info)
}

// proxyExec implements the PROXYEXEC instruction on the OMS (§2.5):
// impersonate the saved AMS context, re-execute the faulting
// instruction — taking the resulting ring-0 trap on the OMS, which is
// exactly "the very work that cannot be done on the AMS" — write the
// advanced context back, restore the handler's context, and signal the
// AMS to resume.
func (m *Machine) proxyExec(oms *Sequencer, frameVA uint64) *trapFault {
	if !oms.IsOMS {
		return &trapFault{trap: isa.TrapGP, info: frameVA}
	}
	if frameVA < SaveAreaBase || (frameVA-SaveAreaBase)%isa.CtxSize != 0 {
		return &trapFault{trap: isa.TrapGP, info: frameVA}
	}
	gid := int((frameVA - SaveAreaBase) / isa.CtxSize)
	if gid >= len(m.Seqs) {
		return &trapFault{trap: isa.TrapGP, info: frameVA}
	}
	ams := m.Seqs[gid]
	if ams.ProcID != oms.ProcID || ams.State != StateWaitProxy || ams.proxyFrame != frameVA {
		return &trapFault{trap: isa.TrapGP, info: frameVA}
	}

	// Impersonate: stash the handler's context, assume the AMS's.
	hsave := oms.SnapshotCtx()
	oms.Clock += 2 * CtxMemCost
	if ff := m.readCtxFrame(oms, frameVA); ff != nil {
		oms.RestoreCtx(hsave)
		return ff
	}
	// Re-execute the faulting instruction to completion. A page fault is
	// serviced and the instruction retried; a system call completes in
	// one service (the kernel advances PC past it).
	oms.InProxy = true
	for tries := 0; ; tries++ {
		ff := m.execOne(oms)
		if ff == nil {
			break
		}
		m.kernelTrap(oms, ff.trap, ff.info)
		if m.stopErr != nil || oms.State != StateRunning {
			break
		}
		if ff.trap == isa.TrapSyscall {
			break
		}
		if tries >= 4 {
			m.fatalf("core: proxy execution for %s did not converge at pc 0x%x", ams.Name(), oms.PC)
			break
		}
	}
	oms.InProxy = false
	// execOne fetched through the fetch micro-cache at the AMS's PC, so
	// the fetch window no longer mirrors it: close the window so the
	// handler's next fetch re-translates exactly as the legacy loop's does.
	oms.winGen = nil

	// Write the advanced context back and restore the handler.
	if ff := m.writeCtxFrame(oms, frameVA, oms.PC, nil); ff != nil {
		m.fatalf("core: proxy writeback to 0x%x failed", frameVA)
	}
	oms.RestoreCtx(hsave)

	// Resume the AMS: it reloads the frame at +signal (Equation 2's
	// final signal) and continues the shred where the OMS left it.
	if m.stopErr != nil || ams.State != StateWaitProxy {
		// The process died during re-execution, or the kernel detached
		// this AMS; nothing to resume.
		return nil
	}
	due := oms.Clock + m.Cfg.SignalCost
	if due > ams.Clock {
		ams.Clock = due
	}
	ams.Clock += uint64(isa.Lookup(isa.OpLdctx).Cost) + CtxMemCost
	// Adopt the OMS's ring-0 state BEFORE the frame load: the save area
	// must be read through the current thread's address space.
	ams.CRs = oms.CRs
	ams.flushTranslation()
	if ff := m.readCtxFrame(ams, frameVA); ff != nil {
		m.fatalf("core: %s: proxy resume load from 0x%x failed", ams.Name(), frameVA)
		return nil
	}
	ams.C.ProxyStall += ams.Clock - ams.stallStart
	// The full §2.5 round trip as the AMS experiences it: fault, signal
	// to the OMS, handler delivery, re-execution, resume signal, frame
	// reload (the sum of Equations 2–3 plus service time).
	m.mx.proxyRTT.Observe(ams.Clock - ams.stallStart)
	ams.State = StateRunning
	ams.proxyFrame = 0
	m.Obs.Emit(oms.Clock, oms.ID, obs.KProxyDone, uint64(ams.ID), frameVA)
	return nil
}

// doSignal implements the SIGNAL instruction (§2.4): an egress
// user-level signal carrying a shred continuation to another sequencer
// of the same MISP processor. SIDs are processor-local logical IDs.
func (m *Machine) doSignal(s *Sequencer, in isa.Instr) *trapFault {
	sid := s.Regs[in.Rd]
	proc := m.Proc(s)
	if sid >= uint64(len(proc.Seqs)) {
		return &trapFault{trap: isa.TrapGP, info: sid}
	}
	target := proc.Seqs[sid]
	if target == s {
		return &trapFault{trap: isa.TrapGP, info: sid}
	}
	ip, sp := s.Regs[in.Rs1], s.Regs[in.Rs2]
	ts := s.Clock + m.Cfg.SignalCost
	if m.plan != nil {
		drop, extra := m.signalFault(s, ip)
		if drop {
			// Lost in flight: the instruction retires and the sender
			// observes success, but the continuation never arrives.
			s.C.SignalsSent++
			m.Obs.Emit(s.Clock, s.ID, obs.KSignalSend, sid, ip)
			return nil
		}
		ts += extra
	}
	target.queueSignal(s.Clock, ts, ip, sp)
	s.C.SignalsSent++
	m.Obs.Emit(s.Clock, s.ID, obs.KSignalSend, sid, ip)
	return nil
}

// ThreadSeqState is the saved architectural state of one sequencer
// within an OS thread's cumulative context. Providing the aggregate
// save area for these is "the primary, if not the only, additional OS
// support required of a legacy OS" (§2.2).
type ThreadSeqState struct {
	Ctx         CtxSnap
	Yield       [isa.NumScenarios]uint64
	InHandler   bool
	YieldSave   CtxSnap
	Pending     []PendingSignal
	State       SeqState // StateRunning, StateIdle or StateWaitProxy
	ProxyFrame  uint64
	HasProxyReq bool // a proxy request was queued but not yet delivered
}

// SaveSeqForSwitch captures a sequencer's state for a thread context
// switch and resets the sequencer. For an AMS this must be called while
// the OMS is at ring 0 (the AMS is parked). The kernel charges
// AMSStateCost per AMS itself.
func (m *Machine) SaveSeqForSwitch(s *Sequencer) ThreadSeqState {
	st := ThreadSeqState{
		Ctx:       s.SnapshotCtx(),
		Yield:     s.Yield,
		InHandler: s.InHandler,
		YieldSave: s.YieldSave,
		Pending:   s.pending,
	}
	switch s.State {
	case StateSuspendRing:
		st.State = StateRunning
	case StateWaitProxy:
		st.State = StateWaitProxy
		st.ProxyFrame = s.proxyFrame
		if s.proxyLost {
			// The fault plane dropped the request in flight, so it is not
			// in PendingProxy to withdraw — but the shred still needs it
			// re-posted on restore, exactly like an undelivered one.
			st.HasProxyReq = true
			s.proxyLost = false
		} else {
			// Withdraw its undelivered proxy request, if any.
			proc := m.Proc(s)
			for i, r := range proc.PendingProxy {
				if r.AMS == s {
					proc.PendingProxy = append(proc.PendingProxy[:i], proc.PendingProxy[i+1:]...)
					st.HasProxyReq = true
					break
				}
			}
		}
	case StateDead:
		// A corpse still holding an occupant's context (CurTID set) saves
		// as dead so switchTo can requeue the trapped shred; a reclaimed
		// corpse (CurTID 0) has nothing left worth saving.
		if s.CurTID != 0 {
			st.State = StateDead
		} else {
			st.State = StateIdle
		}
	default:
		st.State = StateIdle
	}
	clearSeq(s)
	return st
}

// clearSeq readies s for its next occupant: no pending signals, yield
// handlers, handler or proxy state, and a flushed translation. An AMS
// also drops its thread tag and idles, unless it is dead: deadness is
// permanent, the sequencer never idles back into service.
func clearSeq(s *Sequencer) {
	s.pending = nil
	s.Yield = [isa.NumScenarios]uint64{}
	s.InHandler = false
	s.proxyFrame = 0
	s.proxyLost = false
	if !s.IsOMS {
		if s.State != StateDead {
			s.State = StateIdle
		}
		s.CurTID = 0
	}
	s.flushTranslation()
}

// RestoreSeqForSwitch installs a previously saved sequencer state. For
// an AMS that was running, the sequencer is placed in StateSuspendRing
// so the enclosing ring-transition exit resumes it with the standard
// resume signal.
func (m *Machine) RestoreSeqForSwitch(s *Sequencer, st ThreadSeqState, now uint64) {
	s.RestoreCtx(st.Ctx)
	s.Yield = st.Yield
	s.InHandler = st.InHandler
	s.YieldSave = st.YieldSave
	s.pending = st.Pending
	s.proxyFrame = st.ProxyFrame
	if s.Clock < now {
		s.C.IdleCycles += now - s.Clock
		s.Clock = now
	}
	if s.IsOMS {
		return
	}
	proc := m.Proc(s)
	switch st.State {
	case StateRunning:
		s.State = StateSuspendRing
		s.stallStart = s.Clock
	case StateWaitProxy:
		s.State = StateWaitProxy
		s.stallStart = s.Clock
		if st.HasProxyReq {
			proc.PendingProxy = append(proc.PendingProxy, ProxyReq{
				TS:      now + m.Cfg.SignalCost,
				AMS:     s,
				FrameVA: st.ProxyFrame,
			})
		}
	default:
		s.State = StateIdle
	}
	s.CRs = proc.OMS().CRs
	s.flushTranslation()
}

// RebindAMS moves an idle AMS from its current MISP processor to
// another — the dynamic sequencer-to-OMS binding the paper motivates in
// §5.4 ("techniques for dynamically binding AMSs to OMSs, even to the
// extent of crossing socket boundaries") and defers to future work
// (§7). Constraints keep the architecture sound:
//
//   - only an idle AMS with no pending signals or in-flight proxy state
//     may move (its save-area frame is keyed by global ID and needs no
//     relocation);
//   - only the highest-SID AMS of the donor may move, so the donor's
//     remaining logical SIDs — which running software already holds —
//     stay dense and stable;
//   - the AMS adopts the target OMS's ring-0 state and arrives with a
//     cold TLB, exactly like a resume after ring synchronization.
func (m *Machine) RebindAMS(a *Sequencer, toProc int) error {
	if a.IsOMS {
		return fmt.Errorf("core: cannot rebind an OMS")
	}
	if toProc < 0 || toProc >= len(m.Procs) {
		return fmt.Errorf("core: rebind target processor %d out of range", toProc)
	}
	if toProc == a.ProcID {
		return fmt.Errorf("core: rebind to own processor")
	}
	if a.State != StateIdle || a.CurTID != 0 || len(a.pending) != 0 || a.proxyFrame != 0 {
		return fmt.Errorf("core: %s is not quiescent (state %v)", a.Name(), a.State)
	}
	donor := m.Procs[a.ProcID]
	if donor.Seqs[len(donor.Seqs)-1] != a {
		return fmt.Errorf("core: %s is not the donor's highest SID", a.Name())
	}
	target := m.Procs[toProc]
	donor.Seqs = donor.Seqs[:len(donor.Seqs)-1]
	a.ProcID = toProc
	a.SID = len(target.Seqs)
	target.Seqs = append(target.Seqs, a)
	a.Yield = [isa.NumScenarios]uint64{}
	a.InHandler = false
	a.CRs = target.OMS().CRs
	a.flushTranslation()
	if a.Clock < target.OMS().Clock {
		a.C.IdleCycles += target.OMS().Clock - a.Clock
		a.Clock = target.OMS().Clock
	}
	m.Obs.Emit(a.Clock, a.ID, obs.KRebind, uint64(donor.ID), uint64(toProc))
	return nil
}

// ResetSeq clears AMS s after its thread exits (clearSeq: a dead
// sequencer stays dead but is otherwise cleared).
func (m *Machine) ResetSeq(s *Sequencer) {
	clearSeq(s)
	// Withdraw any queued proxy requests from this sequencer.
	proc := m.Proc(s)
	kept := proc.PendingProxy[:0]
	for _, r := range proc.PendingProxy {
		if r.AMS != s {
			kept = append(kept, r)
		}
	}
	proc.PendingProxy = kept
}
