package core

// Superblock micro-op compilation (fast loop only).
//
// The compiled page is the fast loop's only decoded form of code. Each
// executed code page — keyed on the physical page and its store
// generation — is compiled into an array of 16-byte micro-ops, and the
// micro-op is the decoded instruction: its isa.Op, its register fields
// (validated at compile time), the sign-extended immediate and the
// precomputed opcode cost. Both executors switch on that isa.Op, and the
// opcodes an executor does not implement inline take its default arm:
// runUops hands the word to the interpreter leg (sbStep), the cohort
// wave hands back to the general path. That covers privileged and
// system ops, break ops, SRET/SAVECTX/LDCTX's non-standard retirement,
// SEQID's machine access, and — through the sbSlow op byte — invalid
// words and words with a register field out of range; the wave also
// leaves the atomics to runUops. runUops executes straight-line
// superblocks (runs ending at a cross-page or misaligned control
// transfer, a default-arm word, a store into the executing page, or the
// page edge) with one combined stop check per instruction and zero
// per-instruction Lookup/Valid/priv overhead. Everything else —
// default-arm words, the first instruction after a fetch-window miss,
// and blacklisted self-modifying pages — is decoded from memory and runs
// through execInstr, the one interpreter leg (see runBatch).
//
// Bit-identity with the legacy loop, the reference the equivalence
// difftests compare against, rests on four invariants:
//
//  1. Stop checks: the per-instruction horizon, delivery-threshold and
//     cycle/pause-limit checks only read s.Clock against batch
//     constants, so they collapse into one threshold
//     tstar = min(horizon', evT, limit+1); when it (or the batch cap)
//     fires, runBatch runs the individual checks in the legacy loop's
//     order, picking the identical outcome.
//  2. Invalidation: a sequencer's fetch window is valid exactly when
//     s.winGen != nil && s.sb != nil && *s.winGen == s.sb.gen — the
//     frame's live store generation still equals the attached page's
//     compile-time snapshot. Only the executing sequencer's own stores
//     (or an injected bit flip) can hit the page mid-batch (one
//     instruction commits machine-wide at a time), and every
//     store-capable micro-op rechecks the generation before the run
//     continues. INVLPG, TLBFLUSH, CR3 writes, context switches and
//     PROXYEXEC's re-execution (which fetches through the micro-cache
//     behind the window's back) nil winGen. Every miss goes through
//     fetchSlow, which translates (possibly charging WalkCost, exactly
//     as the legacy fetch would), re-points the window, attaches
//     sbEnsure's fresh view, and hands the fetched instruction to
//     execInstr without re-running the stop checks — the legacy loop
//     commits it at the same clock.
//  3. Per-retirement hooks: profiling attribution and fault-injection
//     consultation run once per retired instruction, exactly as in the
//     legacy loop.
//  4. Run-ahead: the cohort wave retires a member's micro-ops out of the
//     global (clock, ID) order only while they are pure (sbPure: they
//     touch nothing but that member's registers, PC and clock and cannot
//     trap, so they commute with every other member's commit), logs an
//     undo record for each, and at its single exit takes back every one
//     ordered after the stop position — so outside the wave the machine
//     is in exactly the legacy loop's state. Loads, stores, faults,
//     default-arm words and threshold stops happen only at a popped
//     member's ordered commit, the global minimum. The one thing a pure
//     micro-op reads that a peer can write is its own code: a store
//     commit revalidates every member's page and stops the wave at the
//     store if one moved.
//
// Compiled pages are derived, host-side state: never snapshotted,
// rebuilt on demand after a restore or fork (see snapshot.go).

import (
	"encoding/binary"
	"math"
	"math/bits"

	"misp/internal/isa"
	"misp/internal/mem"
)

// sbUop is one compiled micro-op: the decoded instruction with its
// validation and cost lookup already resolved.
type sbUop struct {
	imm  int64 // sign-extended immediate
	op   uint8 // isa.Op, or sbSlow
	cost uint8 // opcode cost (isa.Info.Cost)
	rd   uint8
	rs1  uint8
	rs2  uint8
	pure bool // sbPure(op): the cohort wave may run ahead through it
}

// sbSlow is the op byte of a word no executor may run inline. It is the
// first undefined opcode, so neither switch has a case for it and it
// takes the default arm like every opcode they leave out.
const sbSlow = uint8(isa.NumOps)

const (
	// sbSlots is the number of instruction slots per compiled page.
	sbSlots = mem.PageSize / isa.WordSize
	// sbCacheMax bounds the machine-wide compiled-page cache; on
	// overflow the whole cache is dropped (host-side state only).
	sbCacheMax = 1024
	// sbMaxCompiles blacklists a page after this many store-generation
	// recompiles: genuinely self-modifying pages stay on the
	// per-instruction interpreter leg instead of recompiling forever.
	sbMaxCompiles = 16
)

// sbPage is one compiled code page. Valid while *genPtr == gen; a stale
// page is recompiled in place on the next attach (sbEnsure), so every
// sequencer pointing at it sees the fresh view and its window is valid
// again without a refetch.
type sbPage struct {
	base     uint64  // physical page base
	gen      uint32  // store generation at compile time
	genPtr   *uint32 // the frame's live generation counter
	compiles uint32
	dead     bool
	uops     [sbSlots]sbUop
}

// sbEnsure returns the live compiled view of the page at base,
// compiling or recompiling as needed, or nil for a blacklisted page.
func (m *Machine) sbEnsure(base uint64) *sbPage {
	p := m.sbCache[base]
	if p != nil {
		if p.dead {
			return nil
		}
		if gen := m.Phys.Gen(base); p.gen != gen {
			m.sbInvalidates++
			p.compiles++
			if p.compiles >= sbMaxCompiles {
				p.dead = true
				return nil
			}
			p.gen = gen
			m.sbCompile(p)
			m.sbBuilds++
		}
		return p
	}
	if m.sbCache == nil {
		m.sbCache = make(map[uint64]*sbPage, 64)
	} else if len(m.sbCache) >= sbCacheMax {
		clear(m.sbCache)
	}
	p = &sbPage{base: base, gen: m.Phys.Gen(base), genPtr: m.Phys.GenPtr(base)}
	m.sbCompile(p)
	m.sbBuilds++
	m.sbCache[base] = p
	return p
}

// sbCompile translates the page's current bytes into micro-ops.
func (m *Machine) sbCompile(p *sbPage) {
	b := m.Phys.Bytes(p.base, mem.PageSize)
	for i := 0; i < sbSlots; i++ {
		p.uops[i] = sbClassify(isa.Decode(binary.LittleEndian.Uint64(b[i*isa.WordSize:])))
	}
}

// sbClassify maps one decoded instruction to its micro-op. A malformed
// word is marked sbSlow: execInstr raises TrapBadInstr for it.
func sbClassify(in isa.Instr) sbUop {
	u := sbUop{imm: int64(in.Imm), op: sbSlow, rd: in.Rd, rs1: in.Rs1, rs2: in.Rs2}
	if malformed(in) {
		return u
	}
	if info := isa.Lookup(in.Op); !info.Priv && info.Cost <= math.MaxUint8 {
		u.op, u.cost, u.pure = uint8(in.Op), uint8(info.Cost), sbPure(in.Op)
	}
	return u
}

// sbPure reports whether op reads and writes nothing but its own
// sequencer's Regs, FRegs, PC and clock, writes at most Regs[rd] or
// FRegs[rd], and cannot trap. A pure micro-op commutes with every other
// sequencer's commit, which is what lets the cohort wave run a member
// ahead through it (and take it back from a three-word undo record).
// Loads, stores and atomics touch memory and the TLB, div/rem can trap,
// settp writes TP, and everything else is not inline in the wave.
func sbPure(op isa.Op) bool {
	switch op {
	case isa.OpNop, isa.OpPause, isa.OpFence, isa.OpRdtsc, isa.OpGettp,
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSar, isa.OpSlt, isa.OpSltu,
		isa.OpAddi, isa.OpMuli, isa.OpAndi, isa.OpOri, isa.OpXori,
		isa.OpShli, isa.OpShri, isa.OpSari, isa.OpSlti,
		isa.OpLdi, isa.OpLdih,
		isa.OpFadd, isa.OpFsub, isa.OpFmul, isa.OpFdiv, isa.OpFmin, isa.OpFmax,
		isa.OpFsqrt, isa.OpFabs, isa.OpFneg, isa.OpFmov,
		isa.OpFlt, isa.OpFle, isa.OpFeq,
		isa.OpItof, isa.OpFtoi, isa.OpFmvi, isa.OpImvf,
		isa.OpJmp, isa.OpJal, isa.OpJr, isa.OpJalr,
		isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu:
		return true
	}
	return false
}

// waveRunAhead caps how many pure micro-ops a popped cohort member runs
// past its ordered commit, which also bounds what one stop can take back.
// A constant, not a knob: swept 0/1/2/4/8/16/32 on sim_ref at
// 71/94/99/110/129/133/134 Minstr/s, and 8 to 32 are within one
// another's run-to-run spread.
const waveRunAhead = 8

// waveUndo is the undo record of one run-ahead retirement: the micro-op's
// PC (which names its rd and cost through the compiled page) and the two
// registers it could have overwritten.
type waveUndo struct {
	pc uint64
	r  uint64
	f  float64
}

// sbResult is how a micro-op run handed control back to runBatch.
type sbResult uint8

const (
	// sbAgain: revalidate at the loop top (left the page, store
	// invalidation, horizon/cap reached).
	sbAgain sbResult = iota
	// sbStep: the next instruction took runUops' default arm and needs
	// the interpreter leg.
	sbStep
	// sbEnd: the batch is over — a fault was dispatched or an injection
	// fired.
	sbEnd
)

// runCohortWave drives a cohort of running sequencers through the
// legacy commit order using compiled micro-ops only. Members sit in a
// calendar ring: 64 clock-indexed buckets, each a bitmask of member
// indices. The globally earliest commit is the lowest set bit
// (= lowest sequencer ID, since mems is in ID order) of the bucket at
// the wave clock T, so selection is a bucket load plus TrailingZeros,
// and retirement re-files the member with two bit operations — no
// heap, no sort, and no tie or lockstep structure required:
// phase-shifted members interleave at full speed. This is the paper's
// global commit rule ("exactly one instruction commits machine-wide
// at a time, ordered by (clock, sequencer ID)") executed directly.
//
// Ring capacity: plain micro-op costs plus a dynamic TLB-walk charge
// stay far below the 64-cycle span; commits that would leap further
// (an unusually large configured walk cost) rebase instead of
// aliasing. The wave rebases every ringSafe cycles, which also folds
// in members that started more than ringSafe cycles ahead of the
// minimum ("far" members — they bound the wave like an outside event
// until a rebase files them). Occupied clocks therefore always span
// less than the ring, so bucket indices never alias.
//
// Only called with m.prof == nil and m.flt == nil: the profiler's
// per-retirement events and the fault plane's injection probes stay on
// runBatch (runUops / the interpreter leg) instead of being duplicated
// here.
//
// Correctness: while every commit is plain, the outside horizon and
// each member's delivery threshold are frozen, and fetch windows /
// compiled pages can only be invalidated by stores, which bump the
// live page generation checked at every pop. The popped member is by
// construction the (clock, ID) minimum among members, and it commits
// only while it precedes the frozen outside event under the same
// order, so the sequence of ordered commits is exactly the selection
// loop's.
//
// Run-ahead: one indirect jump fed an interleave of eight instruction
// streams mispredicts on most commits, so after its ordered commit the
// popped member keeps going through the same switch while the next
// micro-op is pure, in the page, below the member's own threshold and
// the run is at most waveRunAhead long, and is re-filed once at its
// final clock. Those retirements are early, not wrong — nothing another
// member does can change them or see them — unless the wave stops at a
// position ordered before them. Every stop leaves through the one exit
// with that position in (T, i): a popped member that may not commit
// (threshold, left the page, stale page, default-arm word, div by zero)
// or faults stops at its own pop; a store that moved a member's page
// stops just after itself; a cancel stops at the earliest member's next
// commit. The exit undoes every logged retirement keyed after (T, i),
// then folds the counters, then dispatches the fault: the faulting
// member's later-ordered peers are where the legacy loop has them.
func (m *Machine) runCohortWave(mems *[scanThreshold]*Sequencer, evts, clocks *[scanThreshold]uint64, nm int, outT uint64, outID int) (progress, unclean bool) {
	limit := min(m.cycLimit, m.pauseLimit)
	m.sbRuns++
	// Wave-local member state, filled once. The window/page pointers and
	// the compile-time generation are invariants for the whole call
	// (only the general path refetches windows or recompiles pages), so
	// per-commit revalidation reduces to one live-generation compare.
	// pcs mirrors each member's PC (c.PC and c.Clock are written once per
	// pop, after the run; a fault can only come from a run's first
	// micro-op, so fault dispatch reads current values) and ret counts its
	// retirements, folded into C.Instrs and m.Steps at the single exit
	// below — before any fault dispatch, so the kernel and the watchdog
	// read current counts.
	//
	// thr[i] is the first wave clock at which member i may not commit:
	// the frozen outside event under the (clock, ID) order, the member's
	// delivery threshold and the cycle/pause limit are all call
	// constants, so — as runBatch's tstar does — they fold into one
	// compare per pop. It only decides when the wave hands back;
	// runRound's general turn then runs the individual checks. A member
	// whose window fails validation keeps thr 0: it still sits in the
	// ring and stops the wave when it pops as the minimum.
	var genp [scanThreshold]*uint32
	var dg [scanThreshold]uint32
	var ub [scanThreshold]*[sbSlots]sbUop
	var wva, pcs, thr, ret [scanThreshold]uint64
	var nlog [scanThreshold]uint8 // undo records of each member's latest run
	for i := 0; i < nm; i++ {
		c := mems[i]
		if c.winGen == nil || c.sb == nil || *c.winGen != c.sb.gen {
			continue
		}
		genp[i], dg[i], ub[i], wva[i], pcs[i] = c.winGen, c.sb.gen, &c.sb.uops, c.winVA, c.PC
		t := outT
		if outID >= c.ID && t != noEvent {
			t++ // a tie with the outside event goes to the lower ID
		}
		if limit != noEvent {
			t = min(t, limit+1)
		}
		thr[i] = min(t, evts[i])
	}
	const ringSpan = 64 // power of two
	const ringSafe = ringSpan - 16
	var ring [ringSpan]uint16
	var c *Sequencer
	var f *trapFault // set only by the commit that ends the wave
	// (T, i) is the stop position when the wave exits: every commit
	// ordered before it has been made and, but for a store that ends the
	// wave after committing, none at or after it.
	var T uint64
	var i int
wave:
	for {
		// Rebase: file every member within ringSafe of the minimum into
		// its clock bucket; anything further ahead waits as a "far"
		// member and bounds this pass. Amortized over the ringSafe
		// cycles (dozens of commits) a pass covers.
		T, i = clocks[0], 0
		for j := 1; j < nm; j++ {
			if clocks[j] < T {
				T, i = clocks[j], j
			}
		}
		// One cancellation poll per rebase: a cancel waits at most one
		// pass (ringSafe simulated cycles) before the wave hands back, at
		// the earliest member's next commit, and runRound surfaces it.
		if m.canceled() {
			break
		}
		ring = [ringSpan]uint16{}
		stop := T + ringSafe
		for j := 0; j < nm; j++ {
			if cj := clocks[j]; cj-T < ringSafe {
				ring[cj&(ringSpan-1)] |= 1 << uint(j)
			} else if cj < stop {
				stop = cj
			}
		}
		for {
			b := ring[T&(ringSpan-1)]
			if b == 0 {
				T++
				if T >= stop {
					break // rebase
				}
				continue
			}
			i = bits.TrailingZeros16(b)
			lim := thr[i]
			if T >= lim {
				break wave
			}
			pc := pcs[i]
			off := pc - wva[i]
			if off >= mem.PageSize || off&7 != 0 || *genp[i] != dg[i] {
				// Left the page, or a store (by any member) invalidated
				// it.
				break wave
			}
			u := &ub[i][off>>3]
			c = mems[i]
			r := &c.Regs
			fr := &c.FRegs
			undo := &m.waveLog[i]
			// The ordered commit, then the run ahead: n counts the
			// micro-ops retired after the first, nc is the member's running
			// clock (c.Clock itself is written once, after the run).
			n := 0
			nc := T
			stored := false
			for {
				t := pc + isa.WordSize
				var v uint64
				switch isa.Op(u.op) {
				case isa.OpNop, isa.OpPause, isa.OpFence:
					// cost only
				case isa.OpRdtsc:
					r[u.rd] = nc
				case isa.OpSettp:
					c.TP = r[u.rs1]
				case isa.OpGettp:
					r[u.rd] = c.TP

				case isa.OpAdd:
					r[u.rd] = r[u.rs1] + r[u.rs2]
				case isa.OpSub:
					r[u.rd] = r[u.rs1] - r[u.rs2]
				case isa.OpMul:
					r[u.rd] = r[u.rs1] * r[u.rs2]
				case isa.OpDiv, isa.OpRem:
					if int64(r[u.rs2]) == 0 {
						break wave // faults on the general path
					}
					d := int64(r[u.rs2])
					nn := int64(r[u.rs1])
					if nn == math.MinInt64 && d == -1 {
						if isa.Op(u.op) == isa.OpDiv {
							r[u.rd] = uint64(nn) // overflow wraps, no trap
						} else {
							r[u.rd] = 0
						}
					} else if isa.Op(u.op) == isa.OpDiv {
						r[u.rd] = uint64(nn / d)
					} else {
						r[u.rd] = uint64(nn % d)
					}
				case isa.OpAnd:
					r[u.rd] = r[u.rs1] & r[u.rs2]
				case isa.OpOr:
					r[u.rd] = r[u.rs1] | r[u.rs2]
				case isa.OpXor:
					r[u.rd] = r[u.rs1] ^ r[u.rs2]
				case isa.OpShl:
					r[u.rd] = r[u.rs1] << (r[u.rs2] & 63)
				case isa.OpShr:
					r[u.rd] = r[u.rs1] >> (r[u.rs2] & 63)
				case isa.OpSar:
					r[u.rd] = uint64(int64(r[u.rs1]) >> (r[u.rs2] & 63))
				case isa.OpSlt:
					r[u.rd] = b2u(int64(r[u.rs1]) < int64(r[u.rs2]))
				case isa.OpSltu:
					r[u.rd] = b2u(r[u.rs1] < r[u.rs2])

				case isa.OpAddi:
					r[u.rd] = r[u.rs1] + uint64(u.imm)
				case isa.OpMuli:
					r[u.rd] = r[u.rs1] * uint64(u.imm)
				case isa.OpAndi:
					r[u.rd] = r[u.rs1] & uint64(u.imm)
				case isa.OpOri:
					r[u.rd] = r[u.rs1] | uint64(u.imm)
				case isa.OpXori:
					r[u.rd] = r[u.rs1] ^ uint64(u.imm)
				case isa.OpShli:
					r[u.rd] = r[u.rs1] << (uint64(u.imm) & 63)
				case isa.OpShri:
					r[u.rd] = r[u.rs1] >> (uint64(u.imm) & 63)
				case isa.OpSari:
					r[u.rd] = uint64(int64(r[u.rs1]) >> (uint64(u.imm) & 63))
				case isa.OpSlti:
					r[u.rd] = b2u(int64(r[u.rs1]) < u.imm)

				case isa.OpLdi:
					r[u.rd] = uint64(u.imm)
				case isa.OpLdih:
					r[u.rd] = r[u.rd]&0xFFFF_FFFF | uint64(u.imm)<<32

				case isa.OpLdb:
					if v, f = m.loadN(c, r[u.rs1]+uint64(u.imm), 1); f == nil {
						r[u.rd] = uint64(int64(int8(v)))
					}
				case isa.OpLdbu:
					if v, f = m.loadN(c, r[u.rs1]+uint64(u.imm), 1); f == nil {
						r[u.rd] = v
					}
				case isa.OpLdh:
					if v, f = m.loadN(c, r[u.rs1]+uint64(u.imm), 2); f == nil {
						r[u.rd] = uint64(int64(int16(v)))
					}
				case isa.OpLdhu:
					if v, f = m.loadN(c, r[u.rs1]+uint64(u.imm), 2); f == nil {
						r[u.rd] = v
					}
				case isa.OpLdw:
					if v, f = m.loadN(c, r[u.rs1]+uint64(u.imm), 4); f == nil {
						r[u.rd] = uint64(int64(int32(v)))
					}
				case isa.OpLdwu:
					if v, f = m.loadN(c, r[u.rs1]+uint64(u.imm), 4); f == nil {
						r[u.rd] = v
					}
				case isa.OpLdd:
					if v, f = m.loadN(c, r[u.rs1]+uint64(u.imm), 8); f == nil {
						r[u.rd] = v
					}

				case isa.OpStb:
					f = m.storeN(c, r[u.rs1]+uint64(u.imm), 1, r[u.rd])
					stored = true
				case isa.OpSth:
					f = m.storeN(c, r[u.rs1]+uint64(u.imm), 2, r[u.rd])
					stored = true
				case isa.OpStw:
					f = m.storeN(c, r[u.rs1]+uint64(u.imm), 4, r[u.rd])
					stored = true
				case isa.OpStd:
					f = m.storeN(c, r[u.rs1]+uint64(u.imm), 8, r[u.rd])
					stored = true

				case isa.OpFld:
					if v, f = m.loadN(c, r[u.rs1]+uint64(u.imm), 8); f == nil {
						fr[u.rd] = math.Float64frombits(v)
					}
				case isa.OpFst:
					f = m.storeN(c, r[u.rs1]+uint64(u.imm), 8, math.Float64bits(fr[u.rd]))
					stored = true
				case isa.OpFadd:
					fr[u.rd] = fr[u.rs1] + fr[u.rs2]
				case isa.OpFsub:
					fr[u.rd] = fr[u.rs1] - fr[u.rs2]
				case isa.OpFmul:
					fr[u.rd] = fr[u.rs1] * fr[u.rs2]
				case isa.OpFdiv:
					fr[u.rd] = fr[u.rs1] / fr[u.rs2]
				case isa.OpFmin:
					fr[u.rd] = math.Min(fr[u.rs1], fr[u.rs2])
				case isa.OpFmax:
					fr[u.rd] = math.Max(fr[u.rs1], fr[u.rs2])
				case isa.OpFsqrt:
					fr[u.rd] = math.Sqrt(fr[u.rs1])
				case isa.OpFabs:
					fr[u.rd] = math.Abs(fr[u.rs1])
				case isa.OpFneg:
					fr[u.rd] = -fr[u.rs1]
				case isa.OpFmov:
					fr[u.rd] = fr[u.rs1]
				case isa.OpFlt:
					r[u.rd] = b2u(fr[u.rs1] < fr[u.rs2])
				case isa.OpFle:
					r[u.rd] = b2u(fr[u.rs1] <= fr[u.rs2])
				case isa.OpFeq:
					r[u.rd] = b2u(fr[u.rs1] == fr[u.rs2])
				case isa.OpItof:
					fr[u.rd] = float64(int64(r[u.rs1]))
				case isa.OpFtoi:
					r[u.rd] = uint64(int64(fr[u.rs1]))
				case isa.OpFmvi:
					fr[u.rd] = math.Float64frombits(r[u.rs1])
				case isa.OpImvf:
					r[u.rd] = math.Float64bits(fr[u.rs1])

				case isa.OpJmp:
					t = pc + uint64(u.imm)
				case isa.OpJal:
					r[u.rd] = pc + isa.WordSize
					t = pc + uint64(u.imm)
				case isa.OpJr:
					t = r[u.rs1]
				case isa.OpJalr:
					t = r[u.rs1]
					r[u.rd] = pc + isa.WordSize
				case isa.OpBeq:
					if r[u.rs1] == r[u.rs2] {
						t = pc + uint64(u.imm)
					}
				case isa.OpBne:
					if r[u.rs1] != r[u.rs2] {
						t = pc + uint64(u.imm)
					}
				case isa.OpBlt:
					if int64(r[u.rs1]) < int64(r[u.rs2]) {
						t = pc + uint64(u.imm)
					}
				case isa.OpBge:
					if int64(r[u.rs1]) >= int64(r[u.rs2]) {
						t = pc + uint64(u.imm)
					}
				case isa.OpBltu:
					if r[u.rs1] < r[u.rs2] {
						t = pc + uint64(u.imm)
					}
				case isa.OpBgeu:
					if r[u.rs1] >= r[u.rs2] {
						t = pc + uint64(u.imm)
					}

				default:
					// sbSlow, atomics, and every opcode not inline here:
					// resolve on the general path.
					break wave
				}
				if !u.pure {
					// Only ever the ordered commit: the run-ahead admits
					// pure micro-ops alone.
					if f != nil {
						break wave
					}
					// loadN/storeN may have charged a dynamic TLB walk cost
					// to c.Clock during execution.
					nc = c.Clock
				}
				pc = t
				nc += uint64(u.cost)
				off = pc - wva[i]
				if stored || n >= waveRunAhead || nc >= lim || off >= mem.PageSize || off&7 != 0 {
					break
				}
				if u = &ub[i][off>>3]; !u.pure {
					break
				}
				undo[n] = waveUndo{pc: pc, r: r[u.rd], f: fr[u.rd]}
				n++
			}
			pcs[i] = pc
			c.PC = pc
			c.Clock = nc
			clocks[i] = nc
			ret[i] += uint64(n) + 1
			nlog[i] = uint8(n)
			if stored {
				// The store may have hit a page a peer has already run
				// ahead in: revalidate every member's page, and if one
				// moved stop the wave here, just after the store, so the
				// exit takes the stale retirements back.
				for j := 0; j < nm; j++ {
					if genp[j] != nil && *genp[j] != dg[j] {
						break wave
					}
				}
			}
			ring[T&(ringSpan-1)] = b &^ (1 << uint(i))
			if nc-T >= ringSafe {
				break // leap past the ring: rebase re-files everyone
			}
			ring[nc&(ringSpan-1)] |= 1 << uint(i)
		}
	}
	// Take back every run-ahead retirement ordered after the stop
	// position, newest first. A member's log holds its latest run only:
	// an earlier run ended at one of its own pops, which no later stop
	// position precedes. The key of a logged micro-op is (its clock
	// before, member index) — mems is in ID order.
	for j := 0; j < nm; j++ {
		s := mems[j]
		cur := clocks[j]
		for k := int(nlog[j]) - 1; k >= 0; k-- {
			e := &m.waveLog[j][k]
			u := &ub[j][(e.pc-wva[j])>>3]
			before := cur - uint64(u.cost)
			if before < T || (before == T && j <= i) {
				break
			}
			s.Regs[u.rd], s.FRegs[u.rd] = e.r, e.f
			s.PC, s.Clock, clocks[j], cur = e.pc, before, before, before
			ret[j]--
		}
	}
	steps := m.Steps
	for j := 0; j < nm; j++ {
		mems[j].C.Instrs += ret[j]
		m.Steps += ret[j]
	}
	if f != nil {
		// The fault lands at this member's ordered commit point;
		// later-ordered members have not run yet.
		m.dispatchFault(c, f)
	}
	return m.Steps != steps, f != nil
}

// runUops executes compiled micro-ops starting at slot idx of the
// attached page until the run must hand back: a stop threshold or the
// batch cap fires, control leaves the page, a store invalidates it, or
// the next slot needs the interpreter. Returns the updated retirement
// count. The caller has already validated the fetch window and the
// page's generation for the first slot.
func (m *Machine) runUops(s *Sequencer, sb *sbPage, idx uint64, n, max int, tstar uint64) (int, sbResult) {
	base := s.winVA
	genp := sb.genPtr
	gen := sb.gen
	r := &s.Regs
	fr := &s.FRegs
	prof := m.prof
	flt := m.flt
	res := sbAgain
uloop:
	for {
		var (
			u    *sbUop
			pc   uint64
			c0   uint64
			t    uint64
			va   uint64
			v    uint64
			f    *trapFault
			exit bool
		)
		u = &sb.uops[idx]
		pc = base + idx*isa.WordSize
		if prof != nil {
			c0 = s.Clock
		}
		switch isa.Op(u.op) {
		case isa.OpNop, isa.OpPause, isa.OpFence:
			// cost only
		case isa.OpRdtsc:
			r[u.rd] = s.Clock
		case isa.OpSettp:
			s.TP = r[u.rs1]
		case isa.OpGettp:
			r[u.rd] = s.TP

		case isa.OpAdd:
			r[u.rd] = r[u.rs1] + r[u.rs2]
		case isa.OpSub:
			r[u.rd] = r[u.rs1] - r[u.rs2]
		case isa.OpMul:
			r[u.rd] = r[u.rs1] * r[u.rs2]
		case isa.OpDiv:
			d := int64(r[u.rs2])
			if d == 0 {
				f = &trapFault{trap: isa.TrapDivZero, info: s.PC}
				goto fault
			}
			nn := int64(r[u.rs1])
			if nn == math.MinInt64 && d == -1 {
				r[u.rd] = uint64(nn) // overflow wraps, no trap
			} else {
				r[u.rd] = uint64(nn / d)
			}
		case isa.OpRem:
			d := int64(r[u.rs2])
			if d == 0 {
				f = &trapFault{trap: isa.TrapDivZero, info: s.PC}
				goto fault
			}
			nn := int64(r[u.rs1])
			if nn == math.MinInt64 && d == -1 {
				r[u.rd] = 0
			} else {
				r[u.rd] = uint64(nn % d)
			}
		case isa.OpAnd:
			r[u.rd] = r[u.rs1] & r[u.rs2]
		case isa.OpOr:
			r[u.rd] = r[u.rs1] | r[u.rs2]
		case isa.OpXor:
			r[u.rd] = r[u.rs1] ^ r[u.rs2]
		case isa.OpShl:
			r[u.rd] = r[u.rs1] << (r[u.rs2] & 63)
		case isa.OpShr:
			r[u.rd] = r[u.rs1] >> (r[u.rs2] & 63)
		case isa.OpSar:
			r[u.rd] = uint64(int64(r[u.rs1]) >> (r[u.rs2] & 63))
		case isa.OpSlt:
			r[u.rd] = b2u(int64(r[u.rs1]) < int64(r[u.rs2]))
		case isa.OpSltu:
			r[u.rd] = b2u(r[u.rs1] < r[u.rs2])

		case isa.OpAddi:
			r[u.rd] = r[u.rs1] + uint64(u.imm)
		case isa.OpMuli:
			r[u.rd] = r[u.rs1] * uint64(u.imm)
		case isa.OpAndi:
			r[u.rd] = r[u.rs1] & uint64(u.imm)
		case isa.OpOri:
			r[u.rd] = r[u.rs1] | uint64(u.imm)
		case isa.OpXori:
			r[u.rd] = r[u.rs1] ^ uint64(u.imm)
		case isa.OpShli:
			r[u.rd] = r[u.rs1] << (uint64(u.imm) & 63)
		case isa.OpShri:
			r[u.rd] = r[u.rs1] >> (uint64(u.imm) & 63)
		case isa.OpSari:
			r[u.rd] = uint64(int64(r[u.rs1]) >> (uint64(u.imm) & 63))
		case isa.OpSlti:
			r[u.rd] = b2u(int64(r[u.rs1]) < u.imm)

		case isa.OpLdi:
			r[u.rd] = uint64(u.imm)
		case isa.OpLdih:
			r[u.rd] = r[u.rd]&0xFFFF_FFFF | uint64(u.imm)<<32

		case isa.OpLdb:
			if v, f = m.loadN(s, r[u.rs1]+uint64(u.imm), 1); f != nil {
				goto fault
			}
			r[u.rd] = uint64(int64(int8(v)))
		case isa.OpLdbu:
			if v, f = m.loadN(s, r[u.rs1]+uint64(u.imm), 1); f != nil {
				goto fault
			}
			r[u.rd] = v
		case isa.OpLdh:
			if v, f = m.loadN(s, r[u.rs1]+uint64(u.imm), 2); f != nil {
				goto fault
			}
			r[u.rd] = uint64(int64(int16(v)))
		case isa.OpLdhu:
			if v, f = m.loadN(s, r[u.rs1]+uint64(u.imm), 2); f != nil {
				goto fault
			}
			r[u.rd] = v
		case isa.OpLdw:
			if v, f = m.loadN(s, r[u.rs1]+uint64(u.imm), 4); f != nil {
				goto fault
			}
			r[u.rd] = uint64(int64(int32(v)))
		case isa.OpLdwu:
			if v, f = m.loadN(s, r[u.rs1]+uint64(u.imm), 4); f != nil {
				goto fault
			}
			r[u.rd] = v
		case isa.OpLdd:
			if v, f = m.loadN(s, r[u.rs1]+uint64(u.imm), 8); f != nil {
				goto fault
			}
			r[u.rd] = v

		case isa.OpStb:
			if f = m.storeN(s, r[u.rs1]+uint64(u.imm), 1, r[u.rd]); f != nil {
				goto fault
			}
			exit = *genp != gen
		case isa.OpSth:
			if f = m.storeN(s, r[u.rs1]+uint64(u.imm), 2, r[u.rd]); f != nil {
				goto fault
			}
			exit = *genp != gen
		case isa.OpStw:
			if f = m.storeN(s, r[u.rs1]+uint64(u.imm), 4, r[u.rd]); f != nil {
				goto fault
			}
			exit = *genp != gen
		case isa.OpStd:
			if f = m.storeN(s, r[u.rs1]+uint64(u.imm), 8, r[u.rd]); f != nil {
				goto fault
			}
			exit = *genp != gen

		case isa.OpFld:
			if v, f = m.loadN(s, r[u.rs1]+uint64(u.imm), 8); f != nil {
				goto fault
			}
			fr[u.rd] = math.Float64frombits(v)
		case isa.OpFst:
			if f = m.storeN(s, r[u.rs1]+uint64(u.imm), 8, math.Float64bits(fr[u.rd])); f != nil {
				goto fault
			}
			exit = *genp != gen
		case isa.OpFadd:
			fr[u.rd] = fr[u.rs1] + fr[u.rs2]
		case isa.OpFsub:
			fr[u.rd] = fr[u.rs1] - fr[u.rs2]
		case isa.OpFmul:
			fr[u.rd] = fr[u.rs1] * fr[u.rs2]
		case isa.OpFdiv:
			fr[u.rd] = fr[u.rs1] / fr[u.rs2]
		case isa.OpFmin:
			fr[u.rd] = math.Min(fr[u.rs1], fr[u.rs2])
		case isa.OpFmax:
			fr[u.rd] = math.Max(fr[u.rs1], fr[u.rs2])
		case isa.OpFsqrt:
			fr[u.rd] = math.Sqrt(fr[u.rs1])
		case isa.OpFabs:
			fr[u.rd] = math.Abs(fr[u.rs1])
		case isa.OpFneg:
			fr[u.rd] = -fr[u.rs1]
		case isa.OpFmov:
			fr[u.rd] = fr[u.rs1]
		case isa.OpFlt:
			r[u.rd] = b2u(fr[u.rs1] < fr[u.rs2])
		case isa.OpFle:
			r[u.rd] = b2u(fr[u.rs1] <= fr[u.rs2])
		case isa.OpFeq:
			r[u.rd] = b2u(fr[u.rs1] == fr[u.rs2])
		case isa.OpItof:
			fr[u.rd] = float64(int64(r[u.rs1]))
		case isa.OpFtoi:
			r[u.rd] = uint64(int64(fr[u.rs1]))
		case isa.OpFmvi:
			fr[u.rd] = math.Float64frombits(r[u.rs1])
		case isa.OpImvf:
			r[u.rd] = math.Float64bits(fr[u.rs1])

		case isa.OpJmp:
			t = pc + uint64(u.imm)
			goto branch
		case isa.OpJal:
			r[u.rd] = pc + isa.WordSize
			t = pc + uint64(u.imm)
			goto branch
		case isa.OpJr:
			t = r[u.rs1]
			goto branch
		case isa.OpJalr:
			t = r[u.rs1]
			r[u.rd] = pc + isa.WordSize
			goto branch
		case isa.OpBeq:
			t = pc + isa.WordSize
			if r[u.rs1] == r[u.rs2] {
				t = pc + uint64(u.imm)
			}
			goto branch
		case isa.OpBne:
			t = pc + isa.WordSize
			if r[u.rs1] != r[u.rs2] {
				t = pc + uint64(u.imm)
			}
			goto branch
		case isa.OpBlt:
			t = pc + isa.WordSize
			if int64(r[u.rs1]) < int64(r[u.rs2]) {
				t = pc + uint64(u.imm)
			}
			goto branch
		case isa.OpBge:
			t = pc + isa.WordSize
			if int64(r[u.rs1]) >= int64(r[u.rs2]) {
				t = pc + uint64(u.imm)
			}
			goto branch
		case isa.OpBltu:
			t = pc + isa.WordSize
			if r[u.rs1] < r[u.rs2] {
				t = pc + uint64(u.imm)
			}
			goto branch
		case isa.OpBgeu:
			t = pc + isa.WordSize
			if r[u.rs1] >= r[u.rs2] {
				t = pc + uint64(u.imm)
			}
			goto branch

		case isa.OpAxchg, isa.OpAcas, isa.OpAadd:
			va = r[u.rs1]
			if va%8 != 0 {
				f = &trapFault{trap: isa.TrapBadInstr, info: va}
				goto fault
			}
			if v, f = m.loadN(s, va, 8); f != nil {
				goto fault
			}
			{
				store := v
				doStore := true
				switch isa.Op(u.op) {
				case isa.OpAxchg:
					store = r[u.rs2]
				case isa.OpAcas:
					if v == r[u.rd] {
						store = r[u.rs2]
					} else {
						doStore = false
					}
				case isa.OpAadd:
					store = v + r[u.rs2]
				}
				if doStore {
					if f = m.storeN(s, va, 8, store); f != nil {
						goto fault
					}
					exit = *genp != gen
				}
			}
			r[u.rd] = v

		default:
			// sbSlow and every opcode not inline here: the interpreter leg.
			res = sbStep
			break uloop
		}

		// Shared retire for straight-line micro-ops.
		s.PC = pc + isa.WordSize
		s.Clock += uint64(u.cost)
		s.C.Instrs++
		m.Steps++
		n++
		idx++
		goto post

	branch:
		s.PC = t
		s.Clock += uint64(u.cost)
		s.C.Instrs++
		m.Steps++
		n++
		if toff := t - base; toff < mem.PageSize && toff&7 == 0 {
			idx = toff >> 3 // in-page aligned target: keep running compiled
		} else {
			exit = true // cross-page or misaligned: revalidate via fetch
		}

	post:
		if prof != nil {
			prof.Add(pc, s.Clock-c0)
		}
		if flt != nil {
			if m.injectRetire(s) {
				return n, sbEnd
			}
			if *genp != gen {
				break uloop // injected corruption may have hit this page
			}
		}
		if exit || idx >= sbSlots || n >= max || s.Clock >= tstar {
			break uloop
		}
		continue

	fault:
		if prof != nil {
			prof.Add(pc, s.Clock-c0)
		}
		m.dispatchFault(s, f)
		return n, sbEnd
	}
	return n, res
}
