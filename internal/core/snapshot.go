package core

import (
	"fmt"
	"slices"

	"misp/internal/fault"
	"misp/internal/mem"
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
//   - metric handles, which assemble resolves against the restored
//     registry.

// snapshotConfig codes a machine configuration in struct order.
func snapshotConfig(c *wire.Codec, cfg *Config) {
	wire.Slice(c, &cfg.Topology, c.Int)
	c.U64(&cfg.PhysMem)
	c.U64(&cfg.SignalCost)
	c.U64(&cfg.TimerInterval)
	wire.Enum(c, &cfg.RingPolicy)
	c.Bool(&cfg.TraceEvents)
	c.Bool(&cfg.ProfilePC)
	c.U64(&cfg.MaxCycles)
	fault.SnapshotConfig(c, &cfg.Fault)
	c.U64(&cfg.WatchdogHorizon)
}

// snapshotCtx codes a full ring-3 context.
func snapshotCtx(c *wire.Codec, x *CtxSnap) {
	c.U64s(x.Regs[:])
	c.F64s(x.FRegs[:])
	c.U64(&x.PC)
	c.U64(&x.TP)
}

// snapshotPending codes an ingress signal queue.
func snapshotPending(c *wire.Codec, ps *[]PendingSignal) {
	wire.Slice(c, ps, func(p *PendingSignal) {
		c.U64(&p.TS)
		c.U64(&p.SentTS)
		c.U64(&p.IP)
		c.U64(&p.SP)
	})
}

// Snapshot codes one sequencer's share of a thread's cumulative context
// (the kernel keeps these across context switches).
func (st *ThreadSeqState) Snapshot(c *wire.Codec) {
	snapshotCtx(c, &st.Ctx)
	c.U64s(st.Yield[:])
	c.Bool(&st.InHandler)
	snapshotCtx(c, &st.YieldSave)
	snapshotPending(c, &st.Pending)
	wire.Enum(c, &st.State)
	c.U64(&st.ProxyFrame)
	c.Bool(&st.HasProxyReq)
}

// snapshot codes one sequencer's architectural and timing state. A
// restored sequencer's host-side fetch window starts cold; refilling it
// is counter-neutral by construction. phys is the machine's memory,
// which decoding checks the frames the TLB and fetch cache name
// against, backing them.
func (s *Sequencer) snapshot(c *wire.Codec, phys *mem.Phys) {
	c.Int(&s.ID)
	c.Int(&s.ProcID)
	c.Int(&s.SID)
	c.Bool(&s.IsOMS)
	wire.Enum(c, &s.State)
	c.U64(&s.Clock)
	c.U64s(s.Regs[:])
	c.F64s(s.FRegs[:])
	c.U64(&s.PC)
	c.U64(&s.TP)
	wire.Enum(c, &s.Ring)
	c.U64s(s.CRs[:])
	s.TLB.Snapshot(c, phys)
	// The fetch micro-cache is timing-relevant: a hit bypasses the TLB
	// entirely, so its contents shape the TLB hit/miss counters.
	c.U64(&s.fetchVPN)
	c.U64(&s.fetchBase)
	if c.Decoding() && s.fetchVPN != 0 && !phys.Back(s.fetchBase, mem.PageSize) {
		c.Fail(fmt.Errorf("core: snapshot fetch base %#x out of range", s.fetchBase))
	}
	c.U64s(s.Yield[:])
	c.Bool(&s.InHandler)
	snapshotCtx(c, &s.YieldSave)
	snapshotPending(c, &s.pending)
	c.U64(&s.proxyFrame)
	c.Bool(&s.proxyLost)
	c.Bool(&s.InProxy)
	c.U64(&s.TimerDeadline)
	c.Bool(&s.RescheduleIPI)
	c.U64(&s.stallStart)
	c.Int(&s.CurTID)
	n := &s.C
	for _, p := range []*uint64{
		&n.Instrs, &n.Syscalls, &n.PageFaults, &n.Timers,
		&n.Interrupts, &n.ProxySyscalls, &n.ProxyPageFaults,
		&n.ProxiedServices, &n.RingStall, &n.ProxyStall,
		&n.IdleCycles, &n.SignalsSent, &n.SignalsReceived,
		&n.YieldsTaken,
	} {
		c.U64(p)
	}
}

// EncodeSnapshot writes the complete machine state. The machine must be
// at a quiescent stop (between Run calls, or paused via SetPause): a
// faulted or halted machine has no future to capture. resident is
// m.Phys.Resident(), computed by the caller so it can size c from it.
func (m *Machine) EncodeSnapshot(c *wire.Codec, resident []uint32) error {
	if m.stopErr != nil {
		return fmt.Errorf("core: cannot snapshot a machine with a latched stop: %v", m.stopErr)
	}
	if m.halted {
		return fmt.Errorf("core: cannot snapshot a halted machine")
	}
	snapshotConfig(c, &m.Cfg)
	m.Phys.EncodeSnapshot(c, resident)
	m.snapshot(c, m.Cfg.Fault)
	return nil
}

// RestoreMachine rebuilds a machine from its snapshot. override, if
// non-nil, may adjust run-only configuration (ring policy, limits,
// fault plane) before the machine is assembled; the structural
// parameters consumed during construction cannot change — see
// Config.Structural. A changed Fault configuration discards the
// captured plan state and keeps the fresh plan assemble builds, exactly
// as a cold machine with that configuration would start.
//
// The caller must reattach an OS (SetOS) before Run; kernel state is
// restored separately by internal/kernel.
func RestoreMachine(c *wire.Codec, override func(*Config)) (*Machine, error) {
	var snapCfg Config
	snapshotConfig(c, &snapCfg)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("core: snapshot config: %w", err)
	}
	cfg := snapCfg
	cfg.Topology = slices.Clone(snapCfg.Topology)
	if override != nil {
		override(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: snapshot override: %w", err)
	}
	if a, b := snapCfg.Structural(), cfg.Structural(); a != b {
		return nil, fmt.Errorf("core: snapshot override changes structural parameters: %s -> %s", a, b)
	}
	phys, err := mem.RestorePhys(c, cfg.PhysMem)
	if err != nil {
		return nil, err
	}
	m := assemble(cfg, phys)
	m.snapshot(c, snapCfg.Fault)
	if err := c.Err(); err != nil {
		phys.Release()
		return nil, err
	}
	m.initScratch()
	return m, nil
}

// snapshot codes everything after the memory image: sequencers,
// processors, run totals, the fault plan, and the obs subsystem.
// snapFault is the fault configuration the image was captured under.
// Decoding fills a machine fresh from assemble, checking every
// cross-reference as it resolves it.
func (m *Machine) snapshot(c *wire.Codec, snapFault fault.Config) {
	wire.Slice(c, &m.Seqs, func(s **Sequencer) {
		if c.Decoding() {
			*s = new(Sequencer)
		}
		(*s).snapshot(c, m.Phys)
	})
	if c.Decoding() {
		if len(m.Seqs) != m.Cfg.Topology.Seqs() {
			c.Fail(fmt.Errorf("core: snapshot has %d sequencers, topology %v wants %d",
				len(m.Seqs), m.Cfg.Topology, m.Cfg.Topology.Seqs()))
		}
		for id, s := range m.Seqs {
			if s.ID != id {
				c.Fail(fmt.Errorf("core: snapshot sequencer %d out of order (want %d)", s.ID, id))
			} else if s.State > StateDead {
				c.Fail(fmt.Errorf("core: snapshot sequencer %d has invalid state %d", id, s.State))
			}
		}
	}

	seen := make([]bool, len(m.Seqs))
	wire.Slice(c, &m.Procs, func(pp **Processor) {
		if c.Decoding() {
			*pp = new(Processor)
		}
		p := *pp
		c.Int(&p.ID)
		c.Bool(&p.inRing0)
		c.Bool(&p.crWritten)
		// Membership is dynamic (RebindAMS migrates AMSs between
		// processors), so each processor stores its sequencer ID list.
		ids := make([]int, len(p.Seqs))
		for i, s := range p.Seqs {
			ids[i] = s.ID
		}
		wire.Slice(c, &ids, c.Int)
		if c.Decoding() {
			m.resolveMembers(c, p, ids, seen)
		}
		wire.Slice(c, &p.PendingProxy, func(req *ProxyReq) {
			var ams int
			if req.AMS != nil {
				ams = req.AMS.ID
			}
			c.U64(&req.TS)
			c.Int(&ams)
			c.U64(&req.FrameVA)
			if !c.Decoding() {
				return
			}
			if ams < 0 || ams >= len(m.Seqs) {
				c.Fail(fmt.Errorf("core: snapshot proxy request references sequencer %d", ams))
			} else {
				req.AMS = m.Seqs[ams]
			}
		})
	})
	if c.Decoding() {
		if len(m.Procs) != len(m.Cfg.Topology) {
			c.Fail(fmt.Errorf("core: snapshot has %d processors, topology wants %d",
				len(m.Procs), len(m.Cfg.Topology)))
		}
		for pid, p := range m.Procs {
			if p.ID != pid {
				c.Fail(fmt.Errorf("core: snapshot processor %d out of order (want %d)", p.ID, pid))
			}
		}
		for id, ok := range seen {
			if !ok {
				c.Fail(fmt.Errorf("core: snapshot sequencer %d not owned by any processor", id))
			}
		}
	}

	c.U64(&m.Steps)
	c.U64(&m.wdNext)
	c.U64(&m.wdSteps)
	hasPlan := m.plan != nil
	c.Bool(&hasPlan)
	if hasPlan {
		// A fork whose override replaced the fault configuration reads
		// past the captured plan and keeps the fresh one assemble built.
		plan := new(fault.Plan)
		if m.plan != nil && m.Cfg.Fault == snapFault {
			plan = m.plan
		}
		plan.Snapshot(c)
	}
	m.Obs.Bus.Snapshot(c)
	m.Obs.Metrics.Snapshot(c)
	hasProf := m.prof != nil
	c.Bool(&hasProf)
	if c.Decoding() && hasProf != (m.prof != nil) {
		c.Fail(fmt.Errorf("core: snapshot profile presence %v disagrees with config", hasProf))
	}
	if hasProf && c.Err() == nil {
		m.prof.Snapshot(c)
	}
}

// resolveMembers rebuilds p's sequencer list from decoded IDs: each
// sequencer belongs to exactly one processor (seen marks the claimed
// ones), says so itself, and is the OMS exactly when it comes first.
func (m *Machine) resolveMembers(c *wire.Codec, p *Processor, ids []int, seen []bool) {
	for i, id := range ids {
		if id < 0 || id >= len(m.Seqs) || seen[id] {
			c.Fail(fmt.Errorf("core: snapshot processor %d member %d invalid", p.ID, id))
			return
		}
		seen[id] = true
		s := m.Seqs[id]
		if s.ProcID != p.ID || (i == 0) != s.IsOMS {
			c.Fail(fmt.Errorf("core: snapshot sequencer %d inconsistent with processor %d slot %d", id, p.ID, i))
		}
		p.Seqs = append(p.Seqs, s)
	}
	if len(p.Seqs) == 0 {
		c.Fail(fmt.Errorf("core: snapshot processor %d has no sequencers", p.ID))
	}
}
