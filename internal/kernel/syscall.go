package kernel

import (
	"misp/internal/asm"
	"misp/internal/core"
	"misp/internal/isa"
)

// ENOSYS is the error return value for unknown or rejected system calls.
const ENOSYS = ^uint64(0)

// syscall dispatches a SYSCALL trap on OMS s. The convention: number in
// r0, arguments in r1..r5, result in r0. On return the PC is advanced
// past the SYSCALL instruction. Blocking calls prepare the continuation
// (PC advanced, result pending) before the thread is parked.
func (k *Kernel) syscall(s *core.Sequencer) {
	s.Clock += core.SyscallBaseCost
	t := k.current(s)
	if t == nil {
		k.fatalTrap(s, isa.TrapSyscall, 0)
		return
	}
	n := s.Regs[isa.RRet]
	a1, a2, a3, a4 := s.Regs[isa.RArg0], s.Regs[isa.RArg1], s.Regs[isa.RArg2], s.Regs[isa.RArg3]
	p := t.Proc

	// Blocking system calls are unavailable during proxy execution: the
	// OMS is impersonating an AMS and must not be context switched.
	blocking := n == isa.SysThreadJoin || n == isa.SysYield || n == isa.SysSleep
	if s.InProxy && blocking {
		s.Regs[isa.RRet] = ENOSYS
		s.PC += isa.WordSize
		return
	}

	var ret uint64
	switch n {
	case isa.SysExit:
		p.ExitCode = a1
		s.PC += isa.WordSize
		k.killProcess(s, p, nil)
		return

	case isa.SysThreadExit:
		t.ExitStatus = a1
		s.PC += isa.WordSize
		for _, a := range k.M.Proc(s).AMSs() {
			if a.CurTID == t.TID {
				k.M.ResetSeq(a)
			}
		}
		_ = k.M.SaveSeqForSwitch(s)
		s.CurTID = 0
		k.threadDied(t, a1)
		k.dispatch(s)
		return

	case isa.SysWrite:
		data, err := p.Space.ReadBytes(a1, a2)
		if err != nil {
			k.killProcess(s, p, err)
			return
		}
		p.Out.Write(data)
		s.Clock += a2 / 8 // copy cost
		ret = a2

	case isa.SysBrk:
		if a1 > p.Brk && a1 < asm.HeapLimit {
			p.Brk = a1
		}
		ret = p.Brk

	case isa.SysYield:
		s.PC += isa.WordSize
		s.Regs[isa.RRet] = 0
		if !k.eligible(t, k.M.Proc(s)) {
			// The thread raised its AMS demand beyond this processor.
			k.migrate(s, t)
		} else {
			k.rotate(s, t)
		}
		return

	case isa.SysClock:
		ret = s.Clock

	case isa.SysThreadCreate:
		// thread_create(ip, sp, arg, amsDemand) -> tid
		sp := a2
		if sp == 0 {
			sp = p.allocOSStack()
		}
		nt := k.newThread(p, a1, sp, a3, int(a4))
		k.enqueue(nt)
		k.kickIdle(nt)
		ret = uint64(nt.TID)

	case isa.SysThreadJoin:
		target, ok := k.Threads[int(a1)]
		if !ok || target.Proc != p {
			ret = ENOSYS
			break
		}
		if target.State == ThreadDead {
			ret = target.ExitStatus
			break
		}
		// Block: continuation resumes after the syscall with r0 filled
		// in by threadDied.
		s.PC += isa.WordSize
		target.joiners = append(target.joiners, t)
		k.blockCurrent(s, t)
		return

	case isa.SysPrefault:
		length := a2
		if length == ^uint64(0) {
			// Probe the whole VMA containing a1 (the §5.3 page-probe
			// optimization applied to an entire data segment).
			v := p.Space.Find(a1)
			if v == nil {
				ret = ENOSYS
				break
			}
			a1, length = v.Start, v.End-v.Start
		}
		nPages, err := p.Space.Prefault(a1, length)
		if err != nil {
			k.killProcess(s, p, err)
			return
		}
		// Probing is cheap per page relative to a demand fault — that is
		// the point of the §5.3 optimization.
		s.Clock += uint64(nPages) * 300
		ret = uint64(nPages)

	case isa.SysGetTid:
		ret = uint64(t.TID)

	case isa.SysSetAMSDemand:
		t.AMSDemand = int(a1)
		if a1 > 0 {
			t.HomeProc = s.ProcID
		}
		ret = 0

	case isa.SysSleep:
		s.PC += isa.WordSize
		s.Regs[isa.RRet] = 0
		t.WakeAt = s.Clock + a1
		k.sleeping = append(k.sleeping, t)
		k.blockCurrent(s, t)
		return

	case isa.SysTopology:
		buf := a1
		if err := p.Space.WriteU64(buf, uint64(len(k.M.Procs))); err != nil {
			k.killProcess(s, p, err)
			return
		}
		for i, proc := range k.M.Procs {
			if err := p.Space.WriteU64(buf+8+uint64(i)*8, uint64(len(proc.AMSs()))); err != nil {
				k.killProcess(s, p, err)
				return
			}
		}
		ret = uint64(len(k.M.Procs))

	default:
		ret = ENOSYS
	}

	s.Regs[isa.RRet] = ret
	s.PC += isa.WordSize
}
