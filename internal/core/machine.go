package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"misp/internal/asm"
	"misp/internal/fault"
	"misp/internal/isa"
	"misp/internal/mem"
	"misp/internal/obs"
)

// ProxyReq is an in-flight proxy-execution request from an AMS to its
// OMS (§2.5): visible to the OMS at TS, with the faulting context saved
// at FrameVA.
type ProxyReq struct {
	TS      uint64
	AMS     *Sequencer
	FrameVA uint64
}

// Processor is one MISP processor: an OS-managed sequencer plus zero or
// more application-managed sequencers (§2.2). To the OS it appears as a
// single logical CPU.
type Processor struct {
	ID   int
	Seqs []*Sequencer // Seqs[0] is the OMS; Seqs[1:] are AMSs

	// PendingProxy holds proxy requests awaiting OMS attention. The
	// kernel stashes and restores these across thread context switches.
	PendingProxy []ProxyReq

	inRing0   bool
	crWritten bool // a paging control register was written this episode
}

// OMS returns the processor's OS-managed sequencer.
func (p *Processor) OMS() *Sequencer { return p.Seqs[0] }

// AMSs returns the processor's application-managed sequencers.
func (p *Processor) AMSs() []*Sequencer { return p.Seqs[1:] }

// OS is the kernel's interface to the machine. HandleTrap is invoked
// with the sequencer already at ring 0 and its AMSs suspended per the
// ring policy; the kernel charges its service time to s.Clock directly.
type OS interface {
	// HandleTrap services a ring-0 entry on an OMS: system calls, page
	// faults, timer interrupts, reschedule IPIs, and fatal conditions.
	HandleTrap(s *Sequencer, trap isa.Trap, info uint64)
	// Done reports that all work has finished and the machine should stop.
	Done() bool
}

// metricsPublisher is an OS that keeps counts of its own (the kernel's
// Stats): FinalizeMetrics has it publish them at every Run exit.
type metricsPublisher interface {
	PublishMetrics(*obs.Registry)
}

// SaveAreaBase is the per-sequencer architectural context save area:
// global sequencer i's frame lives at SaveAreaBase + i*isa.CtxSize.
// The MISP firmware spills AMS state here during proxy execution; the
// user-level runtime must keep these pages resident (ShredLib prefaults
// them during initialization).
const SaveAreaBase = asm.RuntimeArenaBase

// FrameVA returns the save-area address for a global sequencer ID.
func FrameVA(globalID int) uint64 {
	return SaveAreaBase + uint64(globalID)*isa.CtxSize
}

// Machine is the complete simulated system.
type Machine struct {
	Cfg   Config
	Phys  *mem.Phys
	Procs []*Processor
	Seqs  []*Sequencer // flattened, OMS-first per processor

	// Obs is the observability subsystem: the event bus the firmware
	// emits into, the metrics registry, and the optional PC profile.
	Obs *obs.Observer

	os      OS
	stopErr error
	halted  bool // a ring-0 HALT was executed

	// ctx, cancelFlag and ctxStop support external cancellation (see
	// SetContext): the flag is set by the context's AfterFunc, ctxStop
	// unregisters it. All nil when no cancelable context is attached —
	// the loops then pay one nil check.
	ctx        context.Context
	cancelFlag *atomic.Bool
	ctxStop    func() bool

	// Oracle selects runLegacy, the one-instruction-per-iteration loop the
	// fast path is difftested against (results are bit-identical). It is a
	// host-side test seam, not configuration: set it on the machine after
	// New, snap's Fork or workloads.Resume and before Run; it is never
	// snapshotted and no flag, request field or Config entry reaches it.
	Oracle bool

	// kernelEntered is set by every kernel entry — the one event that can
	// change anything in the machine behind the run loop's back, os.Done()
	// included. A round that saw one is void: runRound returns and runFast
	// asks the OS whether the run is over before the next selection.
	kernelEntered bool
	// mems, evts, clocks and wave are runRound's cohort scratch, sized to
	// the machine at construction (initScratch): the running sequencers in
	// ID order, each one's delivery threshold and clock, and the cohort
	// wave's per-member state. Host-side like the compiled pages — never
	// snapshotted — and never cleared: a round fills what it reads.
	mems         []*Sequencer
	evts, clocks []uint64
	wave         []waveMember

	// sbCache holds the fast loop's compiled superblock pages (see
	// superblock.go), keyed by physical page base; it is host-side
	// derived state — never snapshotted, rebuilt on demand.
	sbCache map[uint64]*sbPage
	// Superblock host-side statistics (published to the obs host-metric
	// section by FinalizeMetrics; deliberately outside the canonical
	// registry dump so artifacts stay byte-identical across loops).
	sbBuilds, sbInvalidates, sbRuns uint64
	// The cohort wave's own two: its exits, and the run-ahead retirements
	// they took back (BenchmarkCohortWave reports the ratio).
	waveExits, waveTakenBack uint64
	// spin is runAhead's per-call record of its latest pause; spinSkips
	// and spinInstrs count the fixed-point skips it made and the
	// retirements they made (invariant 5 in superblock.go), less those a
	// wave exit took back.
	spin                  spinRec
	spinSkips, spinInstrs uint64
	// count is the counted-spin probe's scratch; countSkips and
	// countInstrs count the counted-spin skips made and the retirements
	// they made (invariant 6), less those a wave exit took back.
	count                   countProbe
	countSkips, countInstrs uint64

	// mx holds pre-resolved metric handles so hot paths pay a plain
	// increment, never a registry lookup.
	mx machMetrics
	// cycLimit is Cfg.MaxCycles normalised by Run: noEvent when
	// unlimited, so every guard is one unsigned compare.
	cycLimit uint64
	// pauseAt stops the run (with ErrPaused) once the selected
	// sequencer's clock strictly exceeds it — checked where the cycle
	// limit is (stopAt), so the stop lands on an instruction boundary and
	// the machine stays resumable. 0 disables. pauseLimit is its
	// noEvent-normalised mirror, set by Run.
	pauseAt, pauseLimit uint64

	// prof mirrors Obs.Prof (nil when profiling is off) for the
	// interpreter's hot path.
	prof *obs.Profile

	// plan is the fault-injection plane (nil when disabled — the hot loops
	// pay exactly one nil check per retired instruction). It owns the
	// injection count FinalizeMetrics publishes.
	plan *fault.Plan
	// Watchdog state: wdHorizon is the livelock window (0 = disabled);
	// wdNext the next check time; wdSteps the retirement count at the
	// last check; wdTrips the livelocks it detected — the one detection
	// the OS does not see. See watchdogTick.
	wdHorizon, wdNext, wdSteps, wdTrips uint64

	// GlobalStats
	Steps uint64 // total instructions executed
	// Wall is the accumulated host time spent inside Run — the per-run
	// cost the sweep harness reports alongside simulated cycles.
	Wall time.Duration
}

// machMetrics are the machine's pre-resolved registry handles: the
// quantities no sequencer counts itself. Everything else the machine
// publishes is summed from SeqCounters by FinalizeMetrics.
type machMetrics struct {
	privCycles                         *obs.Counter
	signalLatency, proxyRTT, ringStall *obs.Histogram
}

func newMachMetrics(r *obs.Registry) machMetrics {
	// Register Table 1's counters so every dump and image lists them,
	// at zero before the first run.
	var none SeqCounters
	for _, p := range none.table1() {
		r.Counter(p.name)
	}
	return machMetrics{
		privCycles:    r.Counter(obs.MCyclesPriv),
		signalLatency: r.Histogram(obs.MSignalLatency),
		proxyRTT:      r.Histogram(obs.MProxyRTT),
		ringStall:     r.Histogram(obs.MRingStall),
	}
}

// Release recycles the machine's physical memory (mem.Phys.Release)
// for the next machine of the same PhysMem. Optional, idempotent, and
// final: call it once everything wanted from the run — counters,
// metrics, events, memory reads — has been extracted; touching
// simulated memory afterwards panics.
func (m *Machine) Release() {
	m.SetContext(context.Background())
	m.Phys.Release()
}

// New builds a machine from a validated configuration.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	phys, err := mem.NewPhys(cfg.PhysMem)
	if err != nil {
		return nil, err
	}
	m := assemble(cfg, phys)
	gid := 0
	for pid, nAMS := range cfg.Topology {
		proc := &Processor{ID: pid}
		for sid := 0; sid <= nAMS; sid++ {
			s := &Sequencer{
				ID:     gid,
				ProcID: pid,
				SID:    sid,
				IsOMS:  sid == 0,
				State:  StateIdle,
				Ring:   isa.Ring3,
			}
			proc.Seqs = append(proc.Seqs, s)
			m.Seqs = append(m.Seqs, s)
			gid++
		}
		m.Procs = append(m.Procs, proc)
	}
	m.initScratch()
	return m, nil
}

// assemble builds a machine on phys without its processors: the obs
// subsystem and its pre-resolved metric handles, and the fault plane.
// New then adds the sequencers its topology describes; a restore
// decodes them.
func assemble(cfg Config, phys *mem.Phys) *Machine {
	o := obs.New(obs.Options{Events: cfg.TraceEvents, ProfilePC: cfg.ProfilePC})
	m := &Machine{Cfg: cfg, Phys: phys, Obs: o, prof: o.Prof}
	m.mx = newMachMetrics(o.Metrics)
	m.initFaultPlane()
	return m
}

// initScratch sizes runRound's cohort scratch: any number of the machine's
// sequencers can be running at once, so the cohort has no other capacity.
func (m *Machine) initScratch() {
	n := len(m.Seqs)
	m.mems = make([]*Sequencer, n)
	m.evts = make([]uint64, n)
	m.clocks = make([]uint64, n)
	m.wave = make([]waveMember, n)
}

// SetOS attaches the kernel. Must be called before Run.
func (m *Machine) SetOS(os OS) { m.os = os }

// SetContext attaches a cancellation context, replacing any earlier
// one. Once ctx is canceled, Run aborts and returns an error wrapping
// ctx's cause (errors.Is(err, context.Canceled) holds for a plain
// cancel). Cancellation is a host-side stop: the machine is stopped at
// an instruction boundary, as at a SetPause point, so it can be
// captured (internal/snap) like a paused one and a fork of that image
// runs on to the uninterrupted run's result (TestCaptureAfterCancel).
// The canceled machine itself has no result to read.
//
// The cancel reaches the run loops as an atomic flag armed through
// context.AfterFunc, polled with one load at every selection, every
// cohort turn, and once per pop inside the cohort wave — so an
// in-flight Run returns within one selection or one pop (at most
// waveRunAhead = 64 micro-ops of one member) of the flag being set,
// and a context already canceled when Run is called stops it before
// the first instruction. The callback captures only the flag,
// never the machine, so a long-lived context does not pin a finished
// machine's memory; Release (or the next SetContext) unregisters it.
// Attaching context.Background() (or any context that cannot be
// canceled) is free: no flag, and the loops skip the check.
func (m *Machine) SetContext(ctx context.Context) {
	if m.ctxStop != nil {
		m.ctxStop()
	}
	m.ctx, m.cancelFlag, m.ctxStop = ctx, nil, nil
	if ctx.Done() == nil {
		return
	}
	flag := new(atomic.Bool)
	m.cancelFlag = flag
	m.ctxStop = context.AfterFunc(ctx, func() { flag.Store(true) })
}

// canceled reports whether the attached context has been canceled
// (one load; false when no cancelable context is attached).
func (m *Machine) canceled() bool {
	return m.cancelFlag != nil && m.cancelFlag.Load()
}

// canceledErr builds the abort error for a canceled run. The chain
// always contains ctx.Err() (context.Canceled or DeadlineExceeded) so
// callers can classify host-side aborts with errors.Is even when the
// canceler attached a descriptive cause.
func (m *Machine) canceledErr() error {
	err := m.ctx.Err()
	if cause := context.Cause(m.ctx); cause != nil && cause != err {
		err = errors.Join(err, cause)
	}
	return fmt.Errorf("core: run canceled at cycle %d after %d instructions: %w",
		m.MaxClock(), m.Steps, err)
}

// Proc returns the processor owning sequencer s.
func (m *Machine) Proc(s *Sequencer) *Processor { return m.Procs[s.ProcID] }

// MaxClock returns the largest local clock across sequencers — the
// machine's wall time.
func (m *Machine) MaxClock() uint64 {
	var t uint64
	for _, s := range m.Seqs {
		if s.Clock > t {
			t = s.Clock
		}
	}
	return t
}

// fatalf stops the run with an error.
func (m *Machine) fatalf(format string, args ...any) {
	if m.stopErr == nil {
		m.stopErr = fmt.Errorf(format, args...)
	}
}

// ErrPaused is returned by Run when the machine reaches a SetPause
// boundary. Unlike every other stop it is not fatal: no stop error is
// latched and no Diagnosis is built, so the machine can be snapshotted
// (internal/snap) or resumed — clear the pause with SetPause(0) and
// call Run again.
var ErrPaused = errors.New("core: run paused")

// SetPause arms a pause point: Run returns ErrPaused once the selected
// sequencer's local clock strictly exceeds cycle, with the machine
// stopped on an instruction boundary in a resumable, capturable state.
// The stop point is deterministic for a given loop (it mirrors the
// MaxCycles check sites: the sequencer runBatch is about to advance, or
// the idle one runRound is about to wake), but the fast loop and the
// oracle (Machine.Oracle) may pause at different boundaries for the same
// cycle. SetPause(0) disarms.
func (m *Machine) SetPause(cycle uint64) { m.pauseAt = cycle }

// Run drives the machine until the OS reports completion, a fatal
// condition occurs, or the cycle limit is exceeded. A cycle ledger that
// does not close (FinalizeMetrics) turns a clean exit or a pause into
// that error.
func (m *Machine) Run() (err error) {
	if m.os == nil {
		return fmt.Errorf("core: Run without an OS attached")
	}
	t0 := time.Now()
	defer func() {
		m.Wall += time.Since(t0)
		if ferr := m.FinalizeMetrics(); ferr != nil && (err == nil || errors.Is(err, ErrPaused)) {
			err = ferr
		}
	}()
	if m.cancelFlag != nil && m.ctx.Err() != nil {
		// AfterFunc sets the flag from its own goroutine; a cancel that
		// preceded this call must not depend on that goroutine's schedule.
		m.cancelFlag.Store(true)
	}
	m.cycLimit, m.pauseLimit = noEvent, noEvent
	if m.Cfg.MaxCycles > 0 {
		m.cycLimit = m.Cfg.MaxCycles
	}
	if m.pauseAt != 0 {
		m.pauseLimit = m.pauseAt
	}
	if m.Oracle {
		return m.runLegacy()
	}
	return m.runFast()
}

// runLegacy is the original one-instruction-per-iteration loop: a full
// O(#sequencers) scan selects the earliest event before every commit.
// Kept as the difftest oracle for the fast path.
func (m *Machine) runLegacy() error {
	for m.stopErr == nil && !m.halted && !m.os.Done() {
		if m.canceled() {
			return m.canceledErr()
		}
		s := m.pickNext()
		if s == nil {
			return m.deadlockDiag()
		}
		if err := m.stopAt(s.Clock); err != nil {
			return err
		}
		m.step(s)
	}
	return m.stopErr
}

// stopAt is the run's stop verdict for a sequencer about to advance at
// clock: ErrPaused past the pause point, the cycle-limit Diagnosis past
// MaxCycles, else nil. Pause wins ties: it is the non-fatal stop, so a
// machine paused exactly at its cycle limit stays capturable.
func (m *Machine) stopAt(clock uint64) error {
	if clock > m.pauseLimit {
		return ErrPaused
	}
	if clock > m.cycLimit {
		return m.cycleLimitDiag()
	}
	return nil
}

// runFast is the fast path, and its whole selection is runRound: until the
// run stops it polls the cancel flag, asks the OS whether the run is over
// after a kernel entry (os.Done() can flip nowhere else, and every kernel
// entry sets kernelEntered), and runs one round. Bit-identical to
// runLegacy — see DESIGN.md "Execution loop" and the loop-equivalence
// difftests.
func (m *Machine) runFast() error {
	m.kernelEntered = true // the first Done check
	for m.stopErr == nil && !m.halted {
		if m.canceled() {
			return m.canceledErr()
		}
		if m.kernelEntered {
			if m.os.Done() {
				break
			}
			m.kernelEntered = false
		}
		if err := m.runRound(); err != nil {
			return err
		}
	}
	return m.stopErr
}

// runRound is the fast path's selection, for every machine size and with
// or without per-retirement hooks: one pass over m.Seqs, every next-event
// time computed fresh as the legacy loop computes it. Every running
// sequencer joins the cohort — in ID order, with its delivery threshold
// (nextDeliveryTime) and clock — and every other one contributes its
// nextEventTime to the outside event (outT, outID), the earliest thing
// that is not a member's commit. Only an idle sequencer has one, so when
// the outside event precedes every member (or there is none) it is that
// sequencer's wake: runRound takes the stop verdict (stopAt) the legacy
// loop takes on the sequencer it picks, wakes it and returns; with neither
// a member nor a wake the machine is deadlocked.
//
// Otherwise the round commits members in the legacy loop's (clock, ID)
// order for as long as nothing but their own clocks can change. While
// every batch stays clean it retires only plain non-breaking
// instructions, so the outside event, the members' delivery inputs (timer
// deadlines, pending signal and proxy queues, handler/yield state) and
// their running states are all frozen, and one selection serves many
// turns: each turn the earliest member by (clock, ID) runs up to the
// horizon — the second-earliest member or the outside event — through
// runBatch. With no per-retirement hook attached and more than one member
// the turns go to runCohortWave instead, which makes the same commits on
// compiled micro-ops alone and hands back the turn it cannot make. A
// batch with a cross-sequencer effect (a fault, a delivery, a break op —
// runBatch's clean flag, the wave's unclean — or a kernel entry) ends the
// round: everything frozen above may have moved, so selection starts over.
func (m *Machine) runRound() error {
	mems, evts, clocks := m.mems, m.evts, m.clocks
	nm := 0
	var out *Sequencer
	outT, outID := noEvent, math.MaxInt
	for _, s := range m.Seqs {
		if s.State == StateRunning {
			mems[nm], evts[nm], clocks[nm] = s, m.nextDeliveryTime(s), s.Clock
			nm++
		} else if t, ok := m.nextEventTime(s); ok && t < outT {
			// ID order: strict < keeps the lowest ID on ties.
			out, outT, outID = s, t, s.ID
		}
	}
	// The one place the hooks are read: profiling attribution and fault
	// injection run once per retired instruction, which runBatch does and
	// the wave does not.
	sbFast := m.prof == nil && m.plan == nil && nm > 1
	// A cancel — the wave hands back for one at its next pop — leaves the
	// round here and surfaces in runFast.
	for !m.canceled() {
		// Mini-selection over the frozen cohort: the earliest member by
		// (clock, ID) and the second-earliest. mems is in ID order, so
		// strict < keeps the lowest ID on clock ties, reproducing the
		// legacy loop's total order. Member clocks live in their own
		// slice so the scan reads consecutive words instead of chasing
		// Sequencer pointers; only the member that ran changes, so one
		// store per turn keeps it coherent.
		best, second := -1, -1
		bc, sc := noEvent, noEvent
		for i, ci := range clocks[:nm] {
			switch {
			case ci < bc:
				second, sc = best, bc
				best, bc = i, ci
			case ci < sc:
				second, sc = i, ci
			}
		}
		if best < 0 || bc > outT || (bc == outT && outID < mems[best].ID) {
			// The outside event precedes every member, or there are none.
			if out == nil {
				return m.deadlockDiag()
			}
			if err := m.stopAt(out.Clock); err != nil {
				return err
			}
			m.wakeIdle(out)
			return nil
		}
		if sbFast {
			prog, unclean := m.runCohortWave(nm, outT, outID)
			if unclean {
				return nil
			}
			if prog {
				continue // rescan with the advanced clocks
			}
			// No commit was possible on the fused path (the minimum member
			// is blocked); resolve it with a general turn below —
			// best/second are still valid since nothing moved.
		}
		hT, hID := outT, outID
		if second >= 0 && (sc < hT || (sc == hT && mems[second].ID < hID)) {
			hT, hID = sc, mems[second].ID
		}
		// A lone member has nobody to interleave with, so its cap is wide.
		maxN := batchInstrs
		if nm == 1 {
			maxN = soloBatchInstrs
		}
		c := mems[best]
		clean, err := m.runBatch(c, hT, hID, evts[best], maxN)
		if err != nil || !clean {
			return err
		}
		clocks[best] = c.Clock
	}
	return nil
}

// batchInstrs caps one runBatch call of a cohort with more than one
// member: the chosen sequencer re-enters runRound's mini-selection at
// least this often even below its horizon. soloBatchInstrs is the cap
// when the cohort is one sequencer, which a re-selection can only pick
// again. Constants, not knobs: the cap is unobservable (the legacy loop
// has none).
const (
	batchInstrs     = 64
	soloBatchInstrs = 4096
)

// runBatch advances running sequencer s for up to maxN instructions.
// While s's clock stays below the event horizon (hT, with hID breaking
// ties by sequencer ID), s provably remains the machine's earliest
// event, so instructions can commit back to back without re-selecting.
// Any instruction that can create an event for another sequencer — an
// isa.ClassEvent opcode, or any trap — ends the batch so selection runs
// again.
//
// evT is the earliest time an event (timer, proxy request, ingress
// signal) becomes deliverable to s — nextDeliveryTime(s). Every input
// feeding it is written only by other sequencers, by the kernel, or by
// batch-breaking instructions (isa.ClassEvent) — none of which can run
// mid-batch — so it is a batch constant: one comparison per instruction
// replaces the legacy loop's three delivery probes. The same invariance
// covers stopErr, halted, os.Done(), and s.State: each changes only on a
// path that already ends the batch (a fault, a break op, or a kernel
// entry).
// The same reasoning makes evT a round constant for runRound, which
// caches it across clean batches.
//
// Instructions execute from the fetch window's compiled page (runUops);
// execInstr is the single interpreter leg, taken for default-arm micro-ops,
// for the first instruction after a window miss, and for every
// instruction of a blacklisted self-modifying page, each decoded
// straight from memory. See superblock.go for the bit-identity argument.
//
// The clean result reports that the batch had no effect outside s
// itself: it stopped only on the horizon, the delivery threshold, or
// the batch size cap, with every retired instruction a plain
// non-breaking one. runRound relies on this to keep a cohort
// running without re-selection.
func (m *Machine) runBatch(s *Sequencer, hT uint64, hID int, evT uint64, maxN int) (clean bool, err error) {
	if err := m.stopAt(s.Clock); err != nil {
		return false, err
	}
	if s.State != StateRunning {
		return false, nil
	}
	if s.Clock >= evT {
		// An event is due now: evT reads each delivery's own guard, so
		// deliverDue takes it.
		m.deliverDue(s)
		return false, nil
	}
	// The three per-instruction stop checks — horizon, delivery
	// threshold, cycle/pause limit, each comparing s.Clock against a
	// batch constant — collapse into one threshold. The resolution block
	// below runs the individual checks in the legacy loop's order when it
	// fires.
	tstar := threshold(s.ID, hT, hID, evT, min(m.cycLimit, m.pauseLimit))
	n := 0
	step := false // the next instruction took runUops' default arm
	for {
		if n >= maxN {
			return true, nil
		}
		if s.Clock >= tstar {
			if s.Clock > hT || (s.Clock == hT && hID < s.ID) || s.Clock >= evT {
				return true, nil
			}
			if err := m.stopAt(s.Clock); err != nil {
				return false, err
			}
			return true, nil
		}
		pc, c0 := s.PC, s.Clock
		var in isa.Instr
		var f *trapFault
		off := pc - s.winVA
		if sb := s.sb; off < mem.PageSize && off&7 == 0 && s.winGen != nil && sb != nil && *s.winGen == sb.gen {
			if !step {
				m.sbRuns++
				var res sbResult
				n, res = m.runUops(s, sb, n, maxN, tstar)
				if res == sbEnd {
					return false, nil
				}
				step = res == sbStep
				continue
			}
			in = isa.Decode(m.Phys.ReadU64(sb.base | off))
		} else if in, f = m.fetchSlow(s); f != nil {
			m.retired(s, pc, c0, f)
			return false, nil
		}
		step = false
		if m.retired(s, pc, c0, m.execInstr(s, in)) {
			// Like a break op: a fault or an injection may have changed
			// this sequencer's state or another's view of memory, so end
			// the batch and let selection re-run.
			return false, nil
		}
		// An op that can create or reorder events on another sequencer (or
		// stop the machine) ends the batch. execInstr raised no fault, so
		// the word is not malformed: its opcode has an isa.Info row.
		if isa.Lookup(in.Op).Class == isa.ClassEvent {
			return false, nil
		}
		n++
	}
}

// threshold is the first clock at which sequencer id may not commit: past
// the horizon (hT, a tie going to the lower of id and hID), at its
// delivery threshold evT, or past limit, the lower of the cycle and pause
// limits (noEvent when neither is set). runBatch and the cohort wave
// compare against it once per commit and, when it fires, hand the
// individual checks to runBatch's resolution block.
func threshold(id int, hT uint64, hID int, evT, limit uint64) uint64 {
	if hID >= id && hT != noEvent {
		hT++
	}
	if limit != noEvent {
		hT = min(hT, limit+1)
	}
	return min(hT, evT)
}

// FinalizeMetrics publishes the counts the machine and its OS keep to
// the metrics registry: total sequencer cycles split into privileged
// (ring-0 episodes, accumulated live), ring-transition stall, proxy
// stall, idle, and the user remainder; instructions retired; Table 1's
// serializing events, summed over sequencers; the OS's own counts; and
// the fault plane's injections and watchdog trips.
// Idempotent; Run calls it on every exit path, pauses included, so a
// mid-run image carries the counts up to its pause. The parts of the
// cycle ledger must fit in cycles.total: if they do not, an account
// double-charged a cycle, and FinalizeMetrics publishes nothing and
// returns a cycle-ledger Diagnosis.
func (m *Machine) FinalizeMetrics() error {
	var total uint64
	var c SeqCounters
	for _, s := range m.Seqs {
		total += s.Clock
		c.Add(&s.C)
	}
	reg := m.Obs.Metrics
	priv := m.mx.privCycles.Value()
	parts := priv + c.IdleCycles + c.RingStall + c.ProxyStall
	if parts > total {
		return m.Diagnose(fault.ReasonCycleLedger, fmt.Errorf(
			"core: cycle ledger: priv %d + idle %d + ring_stall %d + proxy_stall %d exceed cycles.total %d",
			priv, c.IdleCycles, c.RingStall, c.ProxyStall, total))
	}
	reg.Counter(obs.MCyclesTotal).Set(total)
	reg.Counter(obs.MCyclesIdle).Set(c.IdleCycles)
	reg.Counter(obs.MCyclesRingStall).Set(c.RingStall)
	reg.Counter(obs.MCyclesProxyStall).Set(c.ProxyStall)
	reg.Counter(obs.MCyclesUser).Set(total - parts)
	reg.Counter(obs.MInstrs).Set(c.Instrs)
	for _, p := range c.table1() {
		reg.Counter(p.name).Set(p.v)
	}
	// The OS publishes its own counts, fault.detected among them; the
	// watchdog's trips are added to what it set (nothing, for an OS
	// without counts), so publishing twice publishes the same.
	var detected uint64
	if pub, ok := m.os.(metricsPublisher); ok {
		pub.PublishMetrics(reg)
		detected = reg.CounterValue(obs.MFaultDetected)
	}
	if m.wdTrips != 0 {
		reg.Counter(obs.MFaultDetected).Set(detected + m.wdTrips)
	}
	// fault.injected is the attached plan's count. A fork that dropped
	// the plan sets 0 over the count its image carried.
	if m.plan != nil {
		reg.Counter(obs.MFaultInjected).Set(m.plan.Total())
	} else if reg.CounterValue(obs.MFaultInjected) != 0 {
		reg.Counter(obs.MFaultInjected).Set(0)
	}
	// Host section: superblock cache activity and the memory backing.
	// Host metrics stay out of dumps and snapshots, so publishing them
	// cannot perturb identity comparisons between compiled and oracle
	// runs.
	reg.Counter(obs.MSBBuilds).Set(m.sbBuilds)
	reg.Counter(obs.MSBInvalidates).Set(m.sbInvalidates)
	reg.Counter(obs.MSBRuns).Set(m.sbRuns)
	reg.Counter(obs.MSBSpinSkips).Set(m.spinSkips)
	reg.Counter(obs.MSBSpinInstrs).Set(m.spinInstrs)
	reg.Counter(obs.MSBCountSkips).Set(m.countSkips)
	reg.Counter(obs.MSBCountInstrs).Set(m.countInstrs)
	reg.Counter(obs.MMemBacking).Set(m.Phys.Backed())
	return nil
}

// Tracks names one Chrome-trace track per sequencer, for
// obs.WriteChromeTrace.
func (m *Machine) Tracks() []obs.Track {
	tracks := make([]obs.Track, len(m.Seqs))
	for i, s := range m.Seqs {
		tracks[i] = obs.Track{Seq: s.ID, Proc: s.ProcID, Name: s.Name()}
	}
	return tracks
}

// nextDeliveryTime returns the earliest time a timer interrupt, proxy
// request, or ingress signal becomes deliverable to running sequencer
// s, or noEvent: the times at which deliverDue's three deliveries fire,
// each read through the guard its delivery reads (earliestProxy,
// handledPending).
func (m *Machine) nextDeliveryTime(s *Sequencer) uint64 {
	evT := noEvent
	if s.IsOMS {
		if s.TimerDeadline != 0 {
			evT = s.TimerDeadline
		}
		if t, ok := m.earliestProxy(s); ok && t < evT {
			evT = t
		}
	}
	if p, i := s.handledPending(); i >= 0 && p.TS < evT {
		evT = p.TS
	}
	return evT
}

// nextEventTime returns the next time s can make progress, or ok=false
// if s is not self-wakeable (parked states are woken by OMS actions).
func (m *Machine) nextEventTime(s *Sequencer) (uint64, bool) {
	switch s.State {
	case StateRunning:
		return s.Clock, true
	case StateIdle:
		t := uint64(0)
		ok := false
		if p, i := s.nextPending(); i >= 0 {
			t, ok = p.TS, true
		}
		if s.IsOMS {
			if s.TimerDeadline != 0 && (!ok || s.TimerDeadline < t) {
				t, ok = s.TimerDeadline, true
			}
			// A pending proxy request must wake an idle OMS even with no
			// timer armed (§2.5): the AMS is parked in StateWaitProxy and
			// only the OMS can unpark it.
			if pt, pok := m.earliestProxy(s); pok && (!ok || pt < t) {
				t, ok = pt, true
			}
		}
		if ok && t < s.Clock {
			t = s.Clock
		}
		return t, ok
	default:
		return 0, false
	}
}

// earliestProxy returns the earliest pending proxy-request timestamp
// that s could deliver, or ok=false if none is deliverable (s is not an
// OMS, no requests, handler already running, or no proxy handler
// registered).
func (m *Machine) earliestProxy(s *Sequencer) (uint64, bool) {
	if !s.IsOMS || s.InHandler || s.Yield[isa.ScenarioProxy] == 0 {
		return 0, false
	}
	var t uint64
	ok := false
	for _, r := range m.Procs[s.ProcID].PendingProxy {
		if !ok || r.TS < t {
			t, ok = r.TS, true
		}
	}
	return t, ok
}

// pickNext selects the sequencer with the earliest next event.
func (m *Machine) pickNext() *Sequencer {
	var best *Sequencer
	var bestT uint64
	for _, s := range m.Seqs {
		t, ok := m.nextEventTime(s)
		if !ok {
			continue
		}
		if best == nil || t < bestT {
			best, bestT = s, t
		}
	}
	return best
}

// step advances one sequencer by one event or instruction.
func (m *Machine) step(s *Sequencer) {
	if s.State == StateIdle {
		m.wakeIdle(s)
	} else if !m.deliverDue(s) {
		m.exec(s)
	}
}

// deliverDue delivers the event due on running sequencer s, if one is,
// and reports whether it did. The order is the timer (or the reschedule
// IPI riding on it), then a proxy request (OMS only, outside any
// handler), then an ingress signal to a registered handler.
func (m *Machine) deliverDue(s *Sequencer) bool {
	return m.deliverTimer(s) || m.deliverProxy(s) || m.deliverSignalRunning(s)
}

// deliverTimer enters the kernel on OMS s if its timer is due, and
// reports whether it did: a reschedule IPI armed on the deadline is
// consumed and raised in the tick's place.
func (m *Machine) deliverTimer(s *Sequencer) bool {
	if !s.IsOMS || s.TimerDeadline == 0 || s.Clock < s.TimerDeadline {
		return false
	}
	trap := isa.TrapTimer
	if s.RescheduleIPI {
		trap = isa.TrapInterrupt
		s.RescheduleIPI = false
	}
	m.kernelTrap(s, trap, 0)
	return true
}

// wakeIdle advances an idle sequencer to its next event and services it.
func (m *Machine) wakeIdle(s *Sequencer) {
	t, ok := m.nextEventTime(s)
	if !ok {
		m.fatalf("core: wakeIdle on %s with no event", s.Name())
		return
	}
	if t > s.Clock {
		s.C.IdleCycles += t - s.Clock
		s.Clock = t
	}
	// Prefer signal delivery over timer when both are due: an arriving
	// shred continuation starts immediately.
	if p, i := s.nextPending(); i >= 0 && p.TS <= s.Clock {
		s.dropPending(i)
		m.startContinuation(s, p)
		return
	}
	if m.deliverTimer(s) {
		return
	}
	// Pending proxy request: resume the OMS (it idled via HLT, so its
	// saved PC is the instruction after it) and deliver into the proxy
	// handler.
	if m.deliverProxy(s) {
		s.State = StateRunning
	}
}

// startContinuation begins executing a shred continuation delivered by
// SIGNAL to an idle sequencer (§2.4). The sequencer adopts the OMS's
// ring-0 control state — all sequencers of a MISP processor share one
// virtual address space (§2.3) — and is tagged with the thread
// occupying the OMS for kernel bookkeeping.
func (m *Machine) startContinuation(s *Sequencer, p PendingSignal) {
	oms := m.Proc(s).OMS()
	if !s.IsOMS {
		s.CRs = oms.CRs
		s.flushTranslation()
		s.CurTID = oms.CurTID
	}
	s.PC = p.IP
	s.Regs[isa.SP] = p.SP
	s.State = StateRunning
	s.C.SignalsReceived++
	if p.SentTS != 0 && s.Clock >= p.SentTS {
		m.mx.signalLatency.Observe(s.Clock - p.SentTS)
	}
	m.Obs.Emit(s.Clock, s.ID, obs.KSignalStart, p.IP, p.SP)
}

// deliverSignalRunning delivers a pending ingress signal to a running
// sequencer through its ScenarioSignal handler, if one is registered.
func (m *Machine) deliverSignalRunning(s *Sequencer) bool {
	p, i := s.handledPending()
	if i < 0 || p.TS > s.Clock {
		return false
	}
	s.dropPending(i)
	if p.SentTS != 0 && s.Clock >= p.SentTS {
		m.mx.signalLatency.Observe(s.Clock - p.SentTS)
	}
	m.yieldTo(s, isa.ScenarioSignal, p.IP, p.SP)
	return true
}

// deliverProxy transfers the earliest pending proxy request, once it is
// due, into the OMS's registered proxy handler.
func (m *Machine) deliverProxy(s *Sequencer) bool {
	t, ok := m.earliestProxy(s)
	if !ok || t > s.Clock {
		return false
	}
	proc := m.Proc(s)
	best := slices.IndexFunc(proc.PendingProxy, func(r ProxyReq) bool { return r.TS == t })
	req := proc.PendingProxy[best]
	proc.PendingProxy = append(proc.PendingProxy[:best], proc.PendingProxy[best+1:]...)
	m.Obs.Emit(s.Clock, s.ID, obs.KProxyDeliver, uint64(req.AMS.ID), req.FrameVA)
	m.yieldTo(s, isa.ScenarioProxy, req.FrameVA, 0)
	return true
}

// yieldTo performs the YIELD-CONDITIONAL flyweight control transfer
// (§2.4): the current shred's context is saved to the hidden slot and
// execution continues in the registered handler with r1/r2 describing
// the event.
func (m *Machine) yieldTo(s *Sequencer, sc isa.Scenario, a1, a2 uint64) {
	s.YieldSave = s.SnapshotCtx()
	s.InHandler = true
	s.Regs[isa.RArg0] = a1
	s.Regs[isa.RArg1] = a2
	s.PC = s.Yield[sc]
	s.Clock += YieldCost
	s.C.YieldsTaken++
	m.Obs.Emit(s.Clock, s.ID, obs.KYield, uint64(sc), a1)
}

// sret returns from a yield handler to the interrupted shred.
func (m *Machine) sret(s *Sequencer) {
	if !s.InHandler {
		m.fatalf("core: SRET outside a handler on %s at pc 0x%x", s.Name(), s.PC)
		return
	}
	s.RestoreCtx(s.YieldSave)
	s.InHandler = false
	s.Clock += YieldCost
	m.Obs.Emit(s.Clock, s.ID, obs.KSret, 0, 0)
}
