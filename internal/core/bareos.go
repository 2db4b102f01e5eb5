package core

import (
	"bytes"
	"context"
	"fmt"

	"misp/internal/asm"
	"misp/internal/isa"
	"misp/internal/mem"
)

// BareOS is a minimal single-process operating system for kernel-less
// embedding of the machine: it loads one program into an address space,
// demand-pages it, and services a small system-call subset (exit,
// write, clock, brk, prefault). It has no scheduler and no threads —
// shreds on AMSs are the only concurrency. The full multiprocessing OS
// lives in internal/kernel; BareOS exists so the MISP core can be
// exercised (and unit-tested) in isolation.
type BareOS struct {
	M     *Machine
	Space *mem.Space
	Out   bytes.Buffer

	ExitCode uint64
	Exited   bool
	Err      error

	brk uint64
}

// LoadBare creates the address space for prog, installs it on every
// sequencer, and starts the program on processor 0's OMS.
func LoadBare(m *Machine, prog *asm.Program) (*BareOS, error) {
	space, err := mem.NewSpace(m.Phys)
	if err != nil {
		return nil, err
	}
	b := &BareOS{M: m, Space: space, brk: asm.HeapBase}
	if len(prog.Text) > 0 {
		if _, err := space.AddVMA("text", prog.TextBase, prog.TextSize(), false, prog.Text); err != nil {
			return nil, err
		}
	}
	if prog.DataSize() > 0 {
		if _, err := space.AddVMA("data", prog.DataBase, prog.DataSize(), true, prog.Data); err != nil {
			return nil, err
		}
	}
	if _, err := space.AddVMA("heap", asm.HeapBase, asm.HeapLimit-asm.HeapBase, true, nil); err != nil {
		return nil, err
	}
	if _, err := space.AddVMA("arena", asm.RuntimeArenaBase, asm.RuntimeArenaSize, true, nil); err != nil {
		return nil, err
	}
	if _, err := space.AddVMA("stacks", asm.StackPoolBase, asm.StackPoolLimit-asm.StackPoolBase, true, nil); err != nil {
		return nil, err
	}
	// The firmware requires resident save areas.
	if _, err := space.Prefault(SaveAreaBase, uint64(len(m.Seqs))*isa.CtxSize); err != nil {
		return nil, err
	}
	for _, s := range m.Seqs {
		s.CRs[isa.CR0] = isa.CR0Paging
		s.CRs[isa.CR3] = space.PT.RootPA()
	}
	oms := m.Procs[0].OMS()
	oms.PC = prog.Entry
	oms.Regs[isa.SP] = asm.StackPoolBase + asm.StackSize - 16
	oms.State = StateRunning
	m.SetOS(b)
	return b, nil
}

// HandleTrap implements the OS interface.
func (b *BareOS) HandleTrap(s *Sequencer, trap isa.Trap, info uint64) {
	switch trap {
	case isa.TrapPageFault:
		s.Clock += PageFaultCost
		va := PFAddr(info)
		ok, err := b.Space.HandleFault(va, PFIsWrite(info))
		if err != nil {
			b.Err = err
		} else if !ok {
			b.Err = fmt.Errorf("bareos: segfault at 0x%x (pc 0x%x, %s)", va, s.PC, s.Name())
		}
	case isa.TrapSyscall:
		b.syscall(s)
	case isa.TrapTimer, isa.TrapInterrupt:
		s.TimerDeadline = 0 // no scheduler; quiesce
	default:
		b.Err = fmt.Errorf("bareos: fatal trap %v at pc 0x%x on %s (info 0x%x)", trap, s.PC, s.Name(), info)
	}
}

func (b *BareOS) syscall(s *Sequencer) {
	s.Clock += SyscallBaseCost
	n := s.Regs[isa.RRet]
	a1, a2 := s.Regs[isa.RArg0], s.Regs[isa.RArg1]
	var ret uint64
	switch n {
	case isa.SysExit:
		b.Exited = true
		b.ExitCode = a1
	case isa.SysWrite:
		data, err := b.Space.ReadBytes(a1, a2)
		if err != nil {
			b.Err = err
			return
		}
		b.Out.Write(data)
		ret = a2
	case isa.SysClock:
		ret = s.Clock
	case isa.SysBrk:
		if a1 > b.brk && a1 < asm.HeapLimit {
			b.brk = a1
		}
		ret = b.brk
	case isa.SysPrefault:
		nPages, err := b.Space.Prefault(a1, a2)
		if err != nil {
			b.Err = err
			return
		}
		ret = uint64(nPages)
	default:
		ret = ^uint64(0) // ENOSYS
	}
	s.Regs[isa.RRet] = ret
	s.PC += isa.WordSize
}

// Done implements the OS interface.
func (b *BareOS) Done() bool { return b.Exited || b.Err != nil }

// RunBare assembles the pieces: build a machine with cfg, load prog,
// run to completion, and return the BareOS for inspection.
func RunBare(cfg Config, prog *asm.Program) (*BareOS, *Machine, error) {
	return RunBareCtx(context.Background(), cfg, prog)
}

// RunBareCtx is RunBare with host-side cancellation: canceling ctx
// aborts the run at the machine's next event horizon.
func RunBareCtx(ctx context.Context, cfg Config, prog *asm.Program) (*BareOS, *Machine, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	b, err := LoadBare(m, prog)
	if err != nil {
		return nil, m, err
	}
	m.SetContext(ctx)
	if err := m.Run(); err != nil {
		return b, m, err
	}
	return b, m, b.Err
}
