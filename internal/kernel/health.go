package kernel

import (
	"misp/internal/core"
	"misp/internal/fault"
	"misp/internal/isa"
	"misp/internal/obs"
	"misp/internal/shredlib/arena"
)

// This file is the kernel's AMS health check: the OS-level half of the
// fault-recovery story. The core fault plane (internal/fault wired
// through internal/core) breaks things — drops a proxy request in
// flight, kills a sequencer outright — and leaves deterministic
// tracks: Sequencer.ProxyLost, core.StateDead. On every timer tick the
// kernel sweeps its processor's AMSs for those tracks and repairs what
// it can:
//
//   - A lost proxy request is simply re-posted (the AMS is still
//     parked in StateWaitProxy; only the message vanished).
//   - A dead AMS is permanent hardware loss. If it died holding a
//     shred, the kernel reclaims the shred's context via the
//     cumulative-save path (§2.2), materializes it as an LDCTX frame
//     in guest memory, and enqueues an rt_resume_ctx continuation on
//     the process's gang work queue so a live sequencer picks the
//     shred back up. k dead AMSs degrade the processor to n-k workers.
//
// What is deliberately NOT recovered: a context that was the runtime's
// own scheduler loop (requeueing it would hand a live worker a parked
// loop that never returns — classified by stack-slab identity in
// arena.ClassifyDeadContext), a context that died inside a yield
// handler (the hidden YieldSave slot cannot be re-delivered), and
// programs without the ShredLib runtime (no queue to requeue onto).
// Those corpses are reclaimed and latched; the shreds they carried are
// lost, which the workload harness observes as a Diagnosis rather
// than a hang.

// qentry is one continuation waiting for room in a process's gang work
// queue (the guest held the queue lock, or the queue was full, when
// the kernel tried to deliver it).
type qentry struct{ ip, sp uint64 }

// checkAMSHealth sweeps the AMSs of s's processor for fault tracks.
// Called from the timer tick, so detection latency is bounded by the
// timer interval. With the fault plane disabled every check fails in a
// comparison or two per AMS per tick — noise next to the tick itself.
func (k *Kernel) checkAMSHealth(s *core.Sequencer) {
	now := s.Clock
	t := k.current(s)
	var p *Process
	if t != nil && !t.Proc.Exited {
		p = t.Proc
	}
	if p != nil {
		k.flushBacklog(p)
	}
	for _, a := range k.M.Proc(s).AMSs() {
		if a.State == core.StateWaitProxy && a.ProxyLost() {
			k.Stats.Detected++
			k.M.Obs.Emit(now, a.ID, obs.KFaultDetect, uint64(fault.ProxyDrop), a.PC)
			death := a.StallStart()
			k.M.RecoverLostProxy(a, now)
			k.Stats.Recovered++
			if now >= death {
				k.recoveryLat.Observe(now - death)
			}
			k.M.Obs.Emit(now, a.ID, obs.KFaultRecover, uint64(fault.ProxyDrop), a.PC)
			continue
		}
		if a.State != core.StateDead {
			continue
		}
		k.noteDead(a, now)
		if p == nil {
			continue
		}
		// Signals can keep arriving at a corpse (a guest that has not
		// noticed the death keeps SIGNALing it); drain them every tick.
		k.requeuePending(p, k.M.TakePendingSignals(a))
		if !k.latched[a.ID] && a.CurTID != 0 {
			k.recoverDeadAMS(a, now)
		}
	}
}

// noteDead records the first sighting of a dead sequencer.
func (k *Kernel) noteDead(a *core.Sequencer, now uint64) {
	if k.seenDead[a.ID] {
		return
	}
	k.seenDead[a.ID] = true
	k.Stats.Detected++
	k.M.Obs.Emit(now, a.ID, obs.KFaultDetect, uint64(fault.AMSKill), a.PC)
}

// recoverDeadAMS reclaims the context a sequencer died holding and, if
// it was a shred, requeues it on a live worker. Exactly one recovery
// attempt is ever made per corpse (latched); later threads that saved
// state for the dead AMS while it was still alive are handled by
// requeueSavedState when they are switched back in.
func (k *Kernel) recoverDeadAMS(a *core.Sequencer, now uint64) {
	k.latched[a.ID] = true
	th := k.Threads[a.CurTID]
	if th == nil || th.State == ThreadDead || th.Proc.Exited {
		_ = k.M.SaveSeqForSwitch(a) // owner is gone; just reclaim the corpse
		return
	}
	p := th.Proc
	if a.InHandler {
		// Died inside a yield handler: the interrupted shred lives in
		// the hidden YieldSave slot and the handler's own progress is
		// unrecoverable. Reclaim and report the loss via detection only.
		st := k.M.SaveSeqForSwitch(a)
		k.requeuePending(p, st.Pending)
		return
	}
	ctx := a.SnapshotCtx()
	shred, err := arena.ClassifyDeadContext(p.Space, ctx.TP, ctx.Regs[isa.SP])
	if err != nil || !shred {
		// A scheduler-loop context (or not a ShredLib context at all):
		// reclaim without requeueing — a live worker popping a parked
		// scheduler loop would never return to its own.
		st := k.M.SaveSeqForSwitch(a)
		k.requeuePending(p, st.Pending)
		return
	}
	death := a.StallStart()
	if !k.tryRequeueCtx(p, ctx) {
		_ = k.M.SaveSeqForSwitch(a)
		return
	}
	st := k.M.SaveSeqForSwitch(a)
	k.requeuePending(p, st.Pending)
	k.Stats.Recovered++
	if now >= death {
		k.recoveryLat.Observe(now - death)
	}
	k.M.Obs.Emit(now, a.ID, obs.KFaultRecover, uint64(fault.AMSKill), ctx.PC)
}

// requeueSavedState handles a thread being switched IN whose saved AMS
// state targets a physically dead sequencer: the state cannot be
// restored, so a live shred context is requeued on the gang queue
// instead (same classification rules as recoverDeadAMS). Called from
// switchTo; the saved slot is discarded by the caller afterwards.
func (k *Kernel) requeueSavedState(s *core.Sequencer, t *Thread, a *core.Sequencer, st *core.ThreadSeqState) {
	k.noteDead(a, s.Clock)
	p := t.Proc
	if !st.InHandler && st.State != core.StateIdle {
		if shred, err := arena.ClassifyDeadContext(p.Space, st.Ctx.TP, st.Ctx.Regs[isa.SP]); err == nil && shred {
			if k.tryRequeueCtx(p, st.Ctx) {
				k.Stats.Recovered++
				k.M.Obs.Emit(s.Clock, a.ID, obs.KFaultRecover, uint64(fault.AMSKill), st.Ctx.PC)
			}
		}
	}
	k.requeuePending(p, st.Pending)
}

// tryRequeueCtx materializes ctx as an LDCTX frame in fresh guest heap
// memory and enqueues an rt_resume_ctx continuation pointing at it.
// Frames are bump-allocated from the process brk so no two recoveries
// ever alias (two threads of one process can each lose a shred to the
// same dead AMS).
func (k *Kernel) tryRequeueCtx(p *Process, ctx core.CtxSnap) bool {
	resume, err := p.Prog.Symbol("rt_resume_ctx")
	if err != nil {
		return false // no recovery trampoline: not linked against ShredLib
	}
	p.Brk = (p.Brk + 15) &^ 15
	frame := p.Brk
	p.Brk += isa.CtxSize
	if err := p.Space.WriteBytes(frame, core.EncodeCtxFrame(ctx)); err != nil {
		return false
	}
	k.enqueueOrBacklog(p, resume, frame)
	return true
}

// requeuePending re-posts a dead sequencer's undelivered ingress
// signals as gang-queue continuations — except worker-entry signals:
// popping rt_worker_ams_entry would hijack the popper into a brand-new
// scheduler loop it never exits (fatal when the popper is the main
// thread's drain helper). The dead AMS's own worker loop is simply
// gone; its queued shreds are what the other entries carry.
func (k *Kernel) requeuePending(p *Process, pend []core.PendingSignal) {
	if len(pend) == 0 {
		return
	}
	workerEntry, _ := p.Prog.Symbol("rt_worker_ams_entry")
	for _, ps := range pend {
		if workerEntry != 0 && ps.IP == workerEntry {
			continue
		}
		k.enqueueOrBacklog(p, ps.IP, ps.SP)
	}
}

// enqueueOrBacklog delivers one continuation to p's gang work queue,
// parking it in the kernel-side backlog when the queue is locked by an
// interrupted guest or full. A hard error means the address space has
// no runtime arena to deliver into; the continuation is dropped (the
// loss surfaces as a Diagnosis, never a hang on kernel state).
func (k *Kernel) enqueueOrBacklog(p *Process, ip, sp uint64) {
	if len(k.backlog[p.PID]) == 0 {
		ok, err := arena.TryEnqueueContinuation(p.Space, ip, sp)
		if err != nil || ok {
			return
		}
	}
	k.backlog[p.PID] = append(k.backlog[p.PID], qentry{ip, sp})
}

// flushBacklog retries parked continuations in FIFO order, stopping at
// the first transient failure so delivery order is preserved.
func (k *Kernel) flushBacklog(p *Process) {
	q := k.backlog[p.PID]
	for len(q) > 0 {
		ok, err := arena.TryEnqueueContinuation(p.Space, q[0].ip, q[0].sp)
		if err != nil {
			q = nil // arena unreachable; nothing will ever deliver
			break
		}
		if !ok {
			break
		}
		q = q[1:]
	}
	if len(q) == 0 {
		delete(k.backlog, p.PID)
	} else {
		k.backlog[p.PID] = q
	}
}
