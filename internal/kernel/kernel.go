// Package kernel implements the mini multiprocessor operating system
// that stands in for the paper's Windows Server 2003 host: processes
// with demand-paged address spaces, kernel threads on a global run
// queue, round-robin scheduling driven by per-OMS timer interrupts, a
// system-call table, and — the one piece of OS support MISP requires
// (§2.2) — saving and restoring each thread's cumulative AMS context on
// a context switch.
//
// The kernel is high-level-emulated: it manipulates machine state
// directly from Go and charges its service time to the trapping
// sequencer's clock, which is exactly the `priv` term of the paper's
// Equation 1.
package kernel

import (
	"bytes"
	"fmt"

	"misp/internal/asm"
	"misp/internal/core"
	"misp/internal/isa"
	"misp/internal/mem"
	"misp/internal/obs"
)

// ThreadState is the scheduler state of a kernel thread.
type ThreadState uint8

const (
	ThreadReady ThreadState = iota
	ThreadRunning
	ThreadBlocked
	ThreadDead
)

// Thread is one OS thread. While it runs on a MISP processor's OMS, its
// shreds occupy that processor's AMSs; on a context switch the
// cumulative context of OMS plus all AMSs is saved here.
type Thread struct {
	TID   int
	Proc  *Process
	State ThreadState

	OMSState  core.ThreadSeqState
	AMSStates []core.ThreadSeqState

	// AMSDemand is the number of AMSs this thread's shredding requires;
	// the scheduler only places the thread on a processor with at least
	// that many (§5.4's placement constraint).
	AMSDemand int
	// HomeProc is the processor this thread shredded on (-1 if none):
	// its AMSs hold or will hold the thread's shred state and must not
	// be donated by the dynamic binder.
	HomeProc int

	QuantumLeft int
	ExitStatus  uint64
	WakeAt      uint64 // sleeping threads: absolute wake time
	joiners     []*Thread
}

// Process is one address space plus its threads.
type Process struct {
	PID   int
	Name  string
	Space *mem.Space
	Prog  *asm.Program

	Brk     uint64
	Threads map[int]*Thread
	Live    int

	Exited    bool
	ExitCode  uint64
	StartTime uint64
	ExitTime  uint64

	Out bytes.Buffer

	nextStack int // OS-thread stacks, allocated from the top of the pool
}

// Stats aggregates kernel activity for reporting.
type Stats struct {
	Ticks      uint64
	Switches   uint64
	Syscalls   uint64
	PageFaults uint64
	IPIs       uint64
	Rebinds    uint64
	Detected   uint64 // injected faults the health check noticed
	Recovered  uint64 // faults repaired (proxy re-posts + shred requeues)
}

// Kernel is the operating system instance attached to one machine.
type Kernel struct {
	M *core.Machine

	Procs    map[int]*Process
	Threads  map[int]*Thread
	ready    []*Thread
	sleeping []*Thread

	nextPID int
	nextTID int
	live    int // live processes

	// StopPredicate, when set, ends the run early (used by the
	// multiprogramming experiments, where background load never exits).
	StopPredicate func() bool

	// DynamicAMSBinding enables the §5.4/§7 future-work policy: idle
	// AMSs of processors that are no shredded thread's home are rebound
	// to processors running shredded threads, one per timer tick.
	DynamicAMSBinding bool

	// Stats is the one count of the kernel's activity; PublishMetrics
	// copies it into the machine's registry at every Run exit.
	Stats Stats

	// recoveryLat is the health check's detection-to-repair latency
	// histogram, the one metric the kernel writes live.
	recoveryLat *obs.Histogram

	// AMS health-check state (health.go): seenDead records first
	// sightings for detection accounting, latched marks corpses whose
	// one recovery attempt has been spent, backlog parks continuations
	// per PID until the guest gang queue has room.
	seenDead map[int]bool
	latched  map[int]bool
	backlog  map[int][]qentry

	fatal error
}

// namedCount is one count and the registry counter it is published to.
type namedCount struct {
	name string
	v    uint64
}

// published pairs each registry counter the kernel owns with its count
// in st.
func (st *Stats) published() [8]namedCount {
	return [8]namedCount{
		{obs.MKTicks, st.Ticks},
		{obs.MKSyscalls, st.Syscalls},
		{obs.MKPageFaults, st.PageFaults},
		{obs.MKIPIs, st.IPIs},
		{obs.MKSwitches, st.Switches},
		{obs.MKRebinds, st.Rebinds},
		{obs.MFaultDetected, st.Detected},
		{obs.MFaultRecovered, st.Recovered},
	}
}

// PublishMetrics sets the kernel's counters of reg to Stats. The
// machine calls it at every Run exit (core.Machine.FinalizeMetrics).
func (k *Kernel) PublishMetrics(reg *obs.Registry) {
	for _, p := range k.Stats.published() {
		reg.Counter(p.name).Set(p.v)
	}
}

// New creates a kernel, attaches it to m, and arms every OMS timer.
func New(m *core.Machine) *Kernel {
	k := newKernel(m)
	k.nextPID, k.nextTID = 1, 1
	for _, p := range m.Procs {
		p.OMS().TimerDeadline = m.Cfg.TimerInterval
	}
	m.SetOS(k)
	return k
}

// newKernel builds an empty kernel for m, its latency histogram resolved
// against m's registry: what New and a snapshot restore share. The
// kernel's counters are registered here, so every dump and image lists
// them, at zero before the first run; a restore keeps the values it
// decoded.
func newKernel(m *core.Machine) *Kernel {
	reg := m.Obs.Metrics
	var none Stats
	for _, p := range none.published() {
		reg.Counter(p.name)
	}
	return &Kernel{
		M:        m,
		Procs:    make(map[int]*Process),
		Threads:  make(map[int]*Thread),
		seenDead: make(map[int]bool),
		latched:  make(map[int]bool),
		backlog:  make(map[int][]qentry),

		recoveryLat: reg.Histogram(obs.MFaultRecoveryLat),
	}
}

// Err returns the first fatal kernel error (e.g. an unhandled fault in
// a process that was not forgiven as a normal exit).
func (k *Kernel) Err() error { return k.fatal }

// Done implements core.OS.
func (k *Kernel) Done() bool {
	if k.fatal != nil {
		return true
	}
	if k.StopPredicate != nil && k.StopPredicate() {
		return true
	}
	return k.live == 0
}

// Spawn creates a process for prog with one main thread and enqueues it.
func (k *Kernel) Spawn(name string, prog *asm.Program) (*Process, error) {
	space, err := mem.NewSpace(k.M.Phys)
	if err != nil {
		return nil, err
	}
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
	// The MISP firmware requires resident sequencer save areas.
	if _, err := space.Prefault(core.SaveAreaBase, uint64(len(k.M.Seqs))*isa.CtxSize); err != nil {
		return nil, err
	}

	p := &Process{
		PID:       k.nextPID,
		Name:      name,
		Space:     space,
		Prog:      prog,
		Brk:       asm.HeapBase,
		Threads:   make(map[int]*Thread),
		StartTime: k.M.MaxClock(),
	}
	k.nextPID++
	k.Procs[p.PID] = p
	k.live++

	main := k.newThread(p, prog.Entry, p.allocOSStack(), 0, 0)
	k.enqueue(main)
	k.kickIdle(main)
	return p, nil
}

// allocOSStack hands out OS-thread stacks from the top of the stack
// pool, growing downward (shred stacks are allocated by the user-level
// runtime from the bottom, growing upward).
func (p *Process) allocOSStack() uint64 {
	p.nextStack++
	return asm.StackPoolLimit - uint64(p.nextStack-1)*asm.StackSize - 16
}

// newThread builds a thread whose initial context starts at ip with the
// given stack pointer and r1 = arg.
func (k *Kernel) newThread(p *Process, ip, sp, arg uint64, amsDemand int) *Thread {
	t := &Thread{
		TID:       k.nextTID,
		Proc:      p,
		State:     ThreadReady,
		AMSDemand: amsDemand,
		HomeProc:  -1,
	}
	k.nextTID++
	t.OMSState.Ctx.PC = ip
	t.OMSState.Ctx.Regs[isa.SP] = sp
	t.OMSState.Ctx.Regs[isa.RArg0] = arg
	p.Threads[t.TID] = t
	p.Live++
	k.Threads[t.TID] = t
	return t
}

// HandleTrap implements core.OS: the single kernel entry point.
func (k *Kernel) HandleTrap(s *core.Sequencer, trap isa.Trap, info uint64) {
	switch trap {
	case isa.TrapSyscall:
		k.Stats.Syscalls++
		k.syscall(s)
	case isa.TrapPageFault:
		k.Stats.PageFaults++
		k.pageFault(s, info)
	case isa.TrapTimer:
		k.Stats.Ticks++
		k.timerTick(s, true)
	case isa.TrapInterrupt:
		k.Stats.IPIs++
		k.timerTick(s, false)
	default:
		k.fatalTrap(s, trap, info)
	}
}

// pageFault services a demand-paging fault; an illegal access kills the
// process.
func (k *Kernel) pageFault(s *core.Sequencer, info uint64) {
	s.Clock += core.PageFaultCost
	t := k.current(s)
	if t == nil {
		k.fatal = fmt.Errorf("kernel: page fault with no thread on %s", s.Name())
		return
	}
	va := core.PFAddr(info)
	ok, err := t.Proc.Space.HandleFault(va, core.PFIsWrite(info))
	if err != nil {
		k.fatal = err
		return
	}
	if !ok {
		k.killProcess(s, t.Proc, fmt.Errorf(
			"kernel: %s[%d]: segfault at 0x%x (pc 0x%x on %s)",
			t.Proc.Name, t.Proc.PID, va, s.PC, s.Name()))
	}
}

// fatalTrap kills the faulting process.
func (k *Kernel) fatalTrap(s *core.Sequencer, trap isa.Trap, info uint64) {
	t := k.current(s)
	if t == nil {
		k.fatal = fmt.Errorf("kernel: trap %v with no thread on %s", trap, s.Name())
		return
	}
	k.killProcess(s, t.Proc, fmt.Errorf(
		"kernel: %s[%d]: fatal trap %v at pc 0x%x on %s (info 0x%x)",
		t.Proc.Name, t.Proc.PID, trap, s.PC, s.Name(), info))
}

// current returns the thread occupying sequencer s.
func (k *Kernel) current(s *core.Sequencer) *Thread {
	if s.CurTID == 0 {
		return nil
	}
	return k.Threads[s.CurTID]
}
