package kernel

import (
	"misp/internal/core"
	"misp/internal/isa"
	"misp/internal/obs"
)

// This file implements the scheduler: a global FIFO ready queue with
// round-robin preemption, the AMS-demand placement constraint (§5.4),
// best-fit idle-OMS placement (the paper's observation that
// non-shredded applications should run on OMSs that have no AMSs), and
// the cumulative-context thread switch of §2.2.

// enqueue appends t to the ready queue.
func (k *Kernel) enqueue(t *Thread) {
	t.State = ThreadReady
	k.ready = append(k.ready, t)
}

// eligible reports whether t may run on processor proc.
func (k *Kernel) eligible(t *Thread, proc *core.Processor) bool {
	return t.AMSDemand <= len(proc.AMSs())
}

// dequeueFor pops the first ready thread eligible for proc, skipping
// and discarding dead ones.
func (k *Kernel) dequeueFor(proc *core.Processor) *Thread {
	for i := 0; i < len(k.ready); i++ {
		t := k.ready[i]
		if t.State == ThreadDead {
			k.ready = append(k.ready[:i], k.ready[i+1:]...)
			i--
			continue
		}
		if k.eligible(t, proc) {
			k.ready = append(k.ready[:i], k.ready[i+1:]...)
			return t
		}
	}
	return nil
}

// kickIdle nudges the most suitable idle OMS to pick up t: among idle
// OMSs whose processors satisfy t's AMS demand, pick the one with the
// fewest AMSs (best fit), so plain threads gravitate to AMS-less
// processors and leave MISP processors to shredded threads.
func (k *Kernel) kickIdle(t *Thread) {
	now := k.M.MaxClock()
	var best *core.Sequencer
	bestAMS := -1
	for _, proc := range k.M.Procs {
		oms := proc.OMS()
		if oms.State != core.StateIdle || oms.CurTID != 0 {
			continue
		}
		if oms.RescheduleIPI {
			// Already kicked for an earlier wakeup; let another OMS take
			// this thread so wakeups spread across idle processors.
			continue
		}
		if !k.eligible(t, proc) {
			continue
		}
		n := len(proc.AMSs())
		if best == nil || n < bestAMS {
			best, bestAMS = oms, n
		}
	}
	if best == nil {
		return
	}
	k.sendIPI(best, now)
}

// sendIPI arms a reschedule IPI on an OMS. The deadline is kept
// strictly positive: zero is the "no timer" sentinel (relevant when the
// experiment sweeps SignalCost down to 0).
func (k *Kernel) sendIPI(oms *core.Sequencer, now uint64) {
	due := now + k.M.Cfg.SignalCost
	if due == 0 {
		due = 1
	}
	if oms.TimerDeadline == 0 || due < oms.TimerDeadline {
		oms.TimerDeadline = due
		oms.RescheduleIPI = true
	}
}

// timerTick handles a timer interrupt (tick=true) or a reschedule IPI
// (tick=false) on OMS s.
func (k *Kernel) timerTick(s *core.Sequencer, tick bool) {
	s.Clock += core.TimerTickCost
	// Re-arm.
	next := s.TimerDeadline + k.M.Cfg.TimerInterval
	if next <= s.Clock {
		next = s.Clock + k.M.Cfg.TimerInterval
	}
	s.TimerDeadline = next

	k.wakeSleepers(s.Clock)
	k.checkAMSHealth(s)

	t := k.current(s)
	if t != nil {
		// Lazy reaping: the process may have been killed or exited from
		// another OMS.
		if t.Proc.Exited || t.State == ThreadDead {
			k.reapCurrent(s, t)
			t = nil
		} else if tick {
			t.QuantumLeft--
		}
	}
	if k.DynamicAMSBinding && t != nil && t.HomeProc == s.ProcID {
		k.tryAccreteAMS(s)
	}
	switch {
	case t == nil:
		k.dispatch(s)
	case !k.eligible(t, k.M.Proc(s)):
		k.migrate(s, t)
	case t.QuantumLeft <= 0:
		if !k.rotate(s, t) {
			t.QuantumLeft = core.QuantumTicks
		}
	}
}

// dispatch runs the next ready thread eligible for s's processor on OMS
// s, which no thread occupies, or idles s.
func (k *Kernel) dispatch(s *core.Sequencer) {
	if n := k.dequeueFor(k.M.Proc(s)); n != nil {
		k.switchTo(s, n)
	} else {
		s.State = core.StateIdle
		s.CurTID = 0
	}
}

// migrate moves t, whose AMS demand outgrew s's processor, off s: it
// goes back on the ready queue, an eligible idle OMS is kicked to pick it
// up, and s runs other work.
func (k *Kernel) migrate(s *core.Sequencer, t *Thread) {
	k.Stats.Switches++
	k.saveCurrent(s, t)
	k.enqueue(t)
	k.kickIdle(t)
	k.dispatch(s)
}

// rotate preempts t on s for the next ready thread eligible there, if
// there is one, and reports whether it did; t goes to the back of the
// ready queue.
func (k *Kernel) rotate(s *core.Sequencer, t *Thread) bool {
	n := k.dequeueFor(k.M.Proc(s))
	if n == nil {
		return false
	}
	k.Stats.Switches++
	k.saveCurrent(s, t)
	k.enqueue(t)
	k.switchTo(s, n)
	return true
}

// wakeSleepers readies every sleeping thread whose deadline has passed.
func (k *Kernel) wakeSleepers(now uint64) {
	kept := k.sleeping[:0]
	for _, t := range k.sleeping {
		if t.State != ThreadBlocked || t.Proc.Exited {
			continue
		}
		if t.WakeAt <= now {
			k.enqueue(t)
			k.kickIdle(t)
		} else {
			kept = append(kept, t)
		}
	}
	k.sleeping = kept
}

// saveCurrent captures the cumulative context of the thread on s: the
// OMS state plus every AMS of the processor (§2.2). The per-AMS state
// cost models the concurrent firmware save the paper describes.
func (k *Kernel) saveCurrent(s *core.Sequencer, t *Thread) {
	t.OMSState = k.M.SaveSeqForSwitch(s)
	proc := k.M.Proc(s)
	t.AMSStates = t.AMSStates[:0]
	for _, a := range proc.AMSs() {
		t.AMSStates = append(t.AMSStates, k.M.SaveSeqForSwitch(a))
	}
	if n := len(proc.AMSs()); n > 0 {
		// Saves proceed concurrently across AMSs; charge once.
		s.Clock += core.AMSStateCost
	}
	s.CurTID = 0
}

// switchTo installs thread t on OMS s and charges the context switch.
func (k *Kernel) switchTo(s *core.Sequencer, t *Thread) {
	k.Stats.Switches++
	s.Clock += core.CtxSwitchCost
	k.M.Obs.Emit(s.Clock, s.ID, obs.KCtxSwitch, uint64(t.TID), uint64(t.Proc.PID))
	proc := k.M.Proc(s)

	t.State = ThreadRunning
	t.QuantumLeft = core.QuantumTicks
	s.CurTID = t.TID
	s.State = core.StateRunning
	now := s.Clock

	k.M.RestoreSeqForSwitch(s, t.OMSState, now)

	// Install the address space BEFORE restoring AMS states: restored
	// AMSs adopt the OMS's ring-0 control registers, and an AMS that
	// was mid-proxy must reload its context frame from the NEW thread's
	// address space, not the previous occupant's.
	s.CRs[isa.CR0] = isa.CR0Paging
	s.CRs[isa.CR3] = t.Proc.Space.PT.RootPA()
	k.M.NotifyCRWrite(s)

	ams := proc.AMSs()
	for i := range ams {
		if i < len(t.AMSStates) {
			if ams[i].State == core.StateDead {
				// The sequencer died while this thread was off-processor;
				// its saved state cannot be restored. Requeue any live
				// shred context instead of resurrecting dead hardware.
				k.requeueSavedState(s, t, ams[i], &t.AMSStates[i])
				continue
			}
			k.M.RestoreSeqForSwitch(ams[i], t.AMSStates[i], now)
			ams[i].CurTID = t.TID
		}
	}
	if len(t.AMSStates) > 0 {
		s.Clock += core.AMSStateCost
	}
	t.AMSStates = t.AMSStates[:0]
}

// blockCurrent parks the running thread (already marked Blocked by the
// caller, with its continuation prepared) and schedules another.
func (k *Kernel) blockCurrent(s *core.Sequencer, t *Thread) {
	t.State = ThreadBlocked
	k.saveCurrent(s, t)
	k.dispatch(s)
}

// reapCurrent tears down a dead thread occupying s and schedules the
// next eligible one.
func (k *Kernel) reapCurrent(s *core.Sequencer, t *Thread) {
	for _, a := range k.M.Proc(s).AMSs() {
		k.M.ResetSeq(a)
	}
	// Discard the OMS-side state.
	_ = k.M.SaveSeqForSwitch(s)
	s.CurTID = 0
	if t.State != ThreadDead {
		k.threadDied(t, t.ExitStatus)
	}
	k.dispatch(s)
}

// threadDied marks t dead, wakes joiners, and retires the process when
// its last thread exits.
func (k *Kernel) threadDied(t *Thread, status uint64) {
	if t.State == ThreadDead {
		return
	}
	t.State = ThreadDead
	t.ExitStatus = status
	for _, j := range t.joiners {
		if j.State == ThreadBlocked {
			j.OMSState.Ctx.Regs[isa.RRet] = status
			k.enqueue(j)
			k.kickIdle(j)
		}
	}
	t.joiners = nil
	p := t.Proc
	p.Live--
	if p.Live == 0 && !p.Exited {
		k.retireProcess(p, p.ExitCode)
	}
}

// retireProcess finalizes a process.
func (k *Kernel) retireProcess(p *Process, code uint64) {
	if p.Exited {
		return
	}
	p.Exited = true
	p.ExitCode = code
	p.ExitTime = k.M.MaxClock()
	k.M.Obs.Emit(p.ExitTime, 0, obs.KProcExit, uint64(p.PID), code)
	k.live--
}

// killProcess terminates every thread of p. The thread on s (if it
// belongs to p) is torn down immediately; threads running on other
// OMSs are reaped lazily at their next kernel entry, after a reschedule
// IPI. err, when non-nil, is recorded as a fatal kernel error — used
// for faults; plain exits pass nil.
func (k *Kernel) killProcess(s *core.Sequencer, p *Process, err error) {
	if err != nil && k.fatal == nil {
		k.fatal = err
	}
	for _, t := range p.Threads {
		if t.State == ThreadDead {
			continue
		}
		oms := k.seqOf(t)
		switch {
		case oms != nil && oms != s:
			// Running on another OMS: send a reschedule IPI; the thread
			// is reaped lazily at that kernel's next entry.
			k.sendIPI(oms, s.Clock)
		case oms == s:
			// The caller's thread: reaped below.
		default:
			k.threadDied(t, p.ExitCode)
		}
	}
	// Threads still running elsewhere keep Live > 0; force retirement so
	// the recorded exit time reflects the kill.
	k.retireProcess(p, p.ExitCode)
	if t := k.current(s); t != nil && t.Proc == p {
		k.reapCurrent(s, t)
	}
}

// seqOf returns the OMS t currently occupies, or nil.
func (k *Kernel) seqOf(t *Thread) *core.Sequencer {
	if t.State != ThreadRunning {
		return nil
	}
	for _, proc := range k.M.Procs {
		if proc.OMS().CurTID == t.TID {
			return proc.OMS()
		}
	}
	return nil
}

// tryAccreteAMS implements dynamic AMS binding (§5.4/§7): when a
// shredded thread is resident on s's processor, steal one quiescent AMS
// per timer tick from a processor that is no live shredded thread's
// home, provided the move cannot strand any thread's AMS demand.
func (k *Kernel) tryAccreteAMS(s *core.Sequencer) {
	target := k.M.Proc(s)
	if len(target.AMSs()) >= 62 {
		return
	}
	// The largest outstanding AMS demand must stay satisfiable.
	maxDemand := 0
	homes := map[int]bool{}
	for _, t := range k.Threads {
		if t.State == ThreadDead {
			continue
		}
		if t.AMSDemand > maxDemand {
			maxDemand = t.AMSDemand
		}
		if t.HomeProc >= 0 {
			homes[t.HomeProc] = true
		}
	}
	for _, donor := range k.M.Procs {
		if donor == target || len(donor.AMSs()) == 0 || homes[donor.ID] {
			continue
		}
		last := donor.Seqs[len(donor.Seqs)-1]
		if last.State != core.StateIdle || last.CurTID != 0 {
			continue
		}
		if maxDemand > 0 && len(donor.AMSs())-1 < maxDemand && len(target.AMSs())+1 < maxDemand {
			// Donation would leave no processor able to host the most
			// demanding thread.
			ok := false
			for _, p := range k.M.Procs {
				if p != donor && len(p.AMSs()) >= maxDemand {
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
		}
		if err := k.M.RebindAMS(last, target.ID); err != nil {
			continue
		}
		// Inter-processor coordination cost.
		s.Clock += k.M.Cfg.SignalCost
		k.Stats.Rebinds++
		return
	}
}
