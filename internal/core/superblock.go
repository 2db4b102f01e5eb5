package core

// Superblock micro-op compilation (fast loop only).
//
// The compiled page is the fast loop's only decoded form of code. Each
// executed code page — keyed on the physical page and its store
// generation — is compiled into an array of pre-validated micro-ops: a
// dense handler tag, the precomputed opcode cost, the sign-extended
// immediate, and priv/break classification resolved at compile time.
// runUops then executes straight-line superblocks (runs ending at a
// cross-page or misaligned control transfer, a break or privileged op,
// a store into the executing page, or the page edge) with one combined
// stop check per instruction and zero per-instruction
// Lookup/Valid/priv/switch-call overhead. A peephole pass additionally
// fuses hot adjacent pairs (ALU-or-compare + conditional branch,
// addi + 8-byte load/store, ldi + ldih). Everything else — slow-tag
// micro-ops, the first instruction after a fetch-window miss, and
// blacklisted self-modifying pages — is decoded from memory and runs
// through execInstr, the one interpreter leg (see runBatch).
//
// Bit-identity with the legacy loop, the reference the equivalence
// difftests compare against, rests on three invariants:
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
//     legacy loop; pair fusion is compiled out entirely when either is
//     active.
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

// Micro-op handler tags. Dense so the executor switch compiles to a
// jump table. sbSlowTag covers everything rare or complex — privileged
// and system ops, break ops, SRET/SAVECTX/LDCTX's non-standard
// retirement, SEQID's machine access, invalid words — which run through
// execInstr on the interpreter path instead.
const (
	sbSlowTag uint8 = iota
	sbNop           // nop / pause / fence: cost only
	sbRdtsc
	sbSettp
	sbGettp
	sbAdd
	sbSub
	sbMul
	sbDiv
	sbRem
	sbAnd
	sbOr
	sbXor
	sbShl
	sbShr
	sbSar
	sbSlt
	sbSltu
	sbAddi
	sbMuli
	sbAndi
	sbOri
	sbXori
	sbShli
	sbShri
	sbSari
	sbSlti
	sbLdi
	sbLdih
	sbLdb
	sbLdbu
	sbLdh
	sbLdhu
	sbLdw
	sbLdwu
	sbLdd
	sbStb
	sbSth
	sbStw
	sbStd
	sbFld
	sbFst
	sbFadd
	sbFsub
	sbFmul
	sbFdiv
	sbFmin
	sbFmax
	sbFsqrt
	sbFabs
	sbFneg
	sbFmov
	sbFlt
	sbFle
	sbFeq
	sbItof
	sbFtoi
	sbFmvi
	sbImvf
	sbJmp
	sbJal
	sbJr
	sbJalr
	sbBeq
	sbBne
	sbBlt
	sbBge
	sbBltu
	sbBgeu
	sbAxchg
	sbAcas
	sbAadd
	// Fused pairs (peephole; compiled only when profiling and fault
	// injection are both off). The pair's second instruction keeps its
	// own standalone micro-op in the next slot, so a jump into the
	// middle of a fused pair executes normally.
	sbFuseAluBr   // 1-cost ALU/compare + conditional branch
	sbFuseAddiLdd // addi + ldd
	sbFuseAddiFld // addi + fld
	sbFuseAddiStd // addi + std
	sbFuseAddiFst // addi + fst
	sbFuseLdiLdih // ldi + ldih into one 64-bit constant load
)

// sbUop flags.
const sbFBrk uint8 = 1 << 0 // batch-breaking op (sbSlowTag only)

// sbUop is one compiled micro-op: the instruction's handler tag with
// every per-instruction validation and table lookup already resolved.
// Fused pairs carry the second instruction's fields in the *2/rs3/rs4
// slots.
type sbUop struct {
	imm   int64 // sign-extended immediate (fused ldi+ldih: combined constant)
	imm2  int64 // fused pair: second instruction's immediate
	tag   uint8
	cost  uint8 // opcode cost (isa.Info.Cost)
	cost2 uint8 // fused pair: second instruction's opcode cost
	flags uint8
	op    uint8 // isa.Op (slow reconstruction / fused first-half dispatch)
	op2   uint8 // fused pair: second instruction's isa.Op
	rd    uint8
	rs1   uint8
	rs2   uint8
	rd2   uint8 // fused pair: second instruction's rd
	rs3   uint8 // fused pair: second instruction's rs1
	rs4   uint8 // fused pair: second instruction's rs2
}

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

// sbCompile translates the page's current bytes into micro-ops and runs
// the fusion peephole. Fusion is compiled out when per-PC profiling or
// fault injection is active: both need their hook to run between the
// pair's two retirements.
func (m *Machine) sbCompile(p *sbPage) {
	b := m.Phys.Bytes(p.base, mem.PageSize)
	for i := 0; i < sbSlots; i++ {
		p.uops[i] = sbClassify(isa.Decode(binary.LittleEndian.Uint64(b[i*isa.WordSize:])))
	}
	if m.prof != nil || m.flt != nil {
		return
	}
	for i := 0; i < sbSlots-1; i++ {
		sbFuse(&p.uops[i], &p.uops[i+1])
	}
}

// sbClassify maps one decoded instruction to its micro-op. Anything not
// in the inline set — privileged, system, break, or specially retiring
// ops, and invalid words — becomes sbSlowTag and runs through the
// interpreter path.
func sbClassify(in isa.Instr) sbUop {
	u := sbUop{
		imm: int64(in.Imm),
		op:  uint8(in.Op),
		rd:  in.Rd, rs1: in.Rs1, rs2: in.Rs2,
	}
	if !isa.Valid(in.Op) {
		return u // sbSlowTag: execInstr raises TrapBadInstr
	}
	info := isa.Lookup(in.Op)
	if info.Priv || info.Cost > math.MaxUint8 {
		if batchBreak(in.Op) {
			u.flags |= sbFBrk
		}
		return u
	}
	u.cost = uint8(info.Cost)
	switch in.Op {
	case isa.OpNop, isa.OpPause, isa.OpFence:
		u.tag = sbNop
	case isa.OpRdtsc:
		u.tag = sbRdtsc
	case isa.OpSettp:
		u.tag = sbSettp
	case isa.OpGettp:
		u.tag = sbGettp
	case isa.OpAdd:
		u.tag = sbAdd
	case isa.OpSub:
		u.tag = sbSub
	case isa.OpMul:
		u.tag = sbMul
	case isa.OpDiv:
		u.tag = sbDiv
	case isa.OpRem:
		u.tag = sbRem
	case isa.OpAnd:
		u.tag = sbAnd
	case isa.OpOr:
		u.tag = sbOr
	case isa.OpXor:
		u.tag = sbXor
	case isa.OpShl:
		u.tag = sbShl
	case isa.OpShr:
		u.tag = sbShr
	case isa.OpSar:
		u.tag = sbSar
	case isa.OpSlt:
		u.tag = sbSlt
	case isa.OpSltu:
		u.tag = sbSltu
	case isa.OpAddi:
		u.tag = sbAddi
	case isa.OpMuli:
		u.tag = sbMuli
	case isa.OpAndi:
		u.tag = sbAndi
	case isa.OpOri:
		u.tag = sbOri
	case isa.OpXori:
		u.tag = sbXori
	case isa.OpShli:
		u.tag = sbShli
	case isa.OpShri:
		u.tag = sbShri
	case isa.OpSari:
		u.tag = sbSari
	case isa.OpSlti:
		u.tag = sbSlti
	case isa.OpLdi:
		u.tag = sbLdi
	case isa.OpLdih:
		u.tag = sbLdih
	case isa.OpLdb:
		u.tag = sbLdb
	case isa.OpLdbu:
		u.tag = sbLdbu
	case isa.OpLdh:
		u.tag = sbLdh
	case isa.OpLdhu:
		u.tag = sbLdhu
	case isa.OpLdw:
		u.tag = sbLdw
	case isa.OpLdwu:
		u.tag = sbLdwu
	case isa.OpLdd:
		u.tag = sbLdd
	case isa.OpStb:
		u.tag = sbStb
	case isa.OpSth:
		u.tag = sbSth
	case isa.OpStw:
		u.tag = sbStw
	case isa.OpStd:
		u.tag = sbStd
	case isa.OpFld:
		u.tag = sbFld
	case isa.OpFst:
		u.tag = sbFst
	case isa.OpFadd:
		u.tag = sbFadd
	case isa.OpFsub:
		u.tag = sbFsub
	case isa.OpFmul:
		u.tag = sbFmul
	case isa.OpFdiv:
		u.tag = sbFdiv
	case isa.OpFmin:
		u.tag = sbFmin
	case isa.OpFmax:
		u.tag = sbFmax
	case isa.OpFsqrt:
		u.tag = sbFsqrt
	case isa.OpFabs:
		u.tag = sbFabs
	case isa.OpFneg:
		u.tag = sbFneg
	case isa.OpFmov:
		u.tag = sbFmov
	case isa.OpFlt:
		u.tag = sbFlt
	case isa.OpFle:
		u.tag = sbFle
	case isa.OpFeq:
		u.tag = sbFeq
	case isa.OpItof:
		u.tag = sbItof
	case isa.OpFtoi:
		u.tag = sbFtoi
	case isa.OpFmvi:
		u.tag = sbFmvi
	case isa.OpImvf:
		u.tag = sbImvf
	case isa.OpJmp:
		u.tag = sbJmp
	case isa.OpJal:
		u.tag = sbJal
	case isa.OpJr:
		u.tag = sbJr
	case isa.OpJalr:
		u.tag = sbJalr
	case isa.OpBeq:
		u.tag = sbBeq
	case isa.OpBne:
		u.tag = sbBne
	case isa.OpBlt:
		u.tag = sbBlt
	case isa.OpBge:
		u.tag = sbBge
	case isa.OpBltu:
		u.tag = sbBltu
	case isa.OpBgeu:
		u.tag = sbBgeu
	case isa.OpAxchg:
		u.tag = sbAxchg
	case isa.OpAcas:
		u.tag = sbAcas
	case isa.OpAadd:
		u.tag = sbAadd
	default:
		// sbSlowTag (zero value): interpreter path.
		if batchBreak(in.Op) {
			u.flags |= sbFBrk
		}
	}
	return u
}

// sbAluFusable reports whether tag is a 1-cost ALU/compare micro-op the
// branch-fusion peephole accepts as a pair's first half.
func sbAluFusable(tag uint8) bool {
	switch tag {
	case sbAddi, sbLdi, sbAdd, sbSub, sbAnd, sbOr, sbXor,
		sbAndi, sbOri, sbXori, sbSlt, sbSltu, sbSlti:
		return true
	}
	return false
}

// sbFuse rewrites a into a fused pair micro-op when (a, b) matches a
// peephole pattern. b keeps its standalone micro-op: a jump landing on
// the pair's second slot executes it normally.
func sbFuse(a, b *sbUop) {
	switch {
	case a.tag == sbLdi && b.tag == sbLdih && a.rd == b.rd:
		a.imm = int64(uint64(a.imm)&0xFFFF_FFFF | uint64(b.imm)<<32)
		a.cost2 = b.cost
		a.tag = sbFuseLdiLdih
	case sbAluFusable(a.tag) && b.tag >= sbBeq && b.tag <= sbBgeu:
		a.op2 = b.op
		a.imm2 = b.imm
		a.rs3 = b.rs1
		a.rs4 = b.rs2
		a.cost2 = b.cost
		a.tag = sbFuseAluBr
	case a.tag == sbAddi:
		switch b.tag {
		case sbLdd:
			a.tag = sbFuseAddiLdd
		case sbFld:
			a.tag = sbFuseAddiFld
		case sbStd:
			a.tag = sbFuseAddiStd
		case sbFst:
			a.tag = sbFuseAddiFst
		default:
			return
		}
		a.rd2 = b.rd
		a.rs3 = b.rs1
		a.imm2 = b.imm
		a.cost2 = b.cost
	}
}

// sbResult is how a micro-op run handed control back to runBatch.
type sbResult uint8

const (
	// sbAgain: revalidate at the loop top (left the page, store
	// invalidation, horizon/cap reached).
	sbAgain sbResult = iota
	// sbStep: the next instruction is a slow-tag micro-op and needs the
	// interpreter leg.
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
// live page generation checked before every commit. The popped member
// is by construction the (clock, ID) minimum among members, and it
// commits only while it precedes the frozen outside event under the
// same order, so the retirement sequence is exactly the selection
// loop's. A fault dispatches at the faulting member's ordered commit
// point with later-ordered members untouched. Fused pairs always
// split here (the second half's standalone micro-op sits in the next
// slot and pops next if the member is still the minimum), matching
// the single-half path runUops' tstar guard forces.
func (m *Machine) runCohortWave(mems *[scanThreshold]*Sequencer, evts, clocks *[scanThreshold]uint64, nm int, outT uint64, outID int) (progress, unclean bool) {
	limit := min(m.cycLimit, m.pauseLimit)
	m.sbRuns++
	// Wave-local member state, filled once. The window/page pointers and
	// the compile-time generation are invariants for the whole call
	// (only the general path refetches windows or recompiles pages), so
	// per-commit revalidation reduces to one live-generation compare.
	// pcs mirrors each member's PC (stored through to c.PC per commit,
	// which fault dispatch reads) and ret counts its retirements, folded
	// into C.Instrs and m.Steps at the single exit below — before any
	// fault dispatch, so the kernel and the watchdog read current counts.
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
wave:
	for {
		// Rebase: file every member within ringSafe of the minimum into
		// its clock bucket; anything further ahead waits as a "far"
		// member and bounds this pass. Amortized over the ringSafe
		// cycles (dozens of commits) a pass covers.
		minT := clocks[0]
		for i := 1; i < nm; i++ {
			if clocks[i] < minT {
				minT = clocks[i]
			}
		}
		ring = [ringSpan]uint16{}
		stop := minT + ringSafe
		for i := 0; i < nm; i++ {
			if ci := clocks[i]; ci-minT < ringSafe {
				ring[ci&(ringSpan-1)] |= 1 << uint(i)
			} else if ci < stop {
				stop = ci
			}
		}
		T := minT
		for {
			b := ring[T&(ringSpan-1)]
			if b == 0 {
				T++
				if T >= stop {
					break // rebase
				}
				continue
			}
			i := bits.TrailingZeros16(b)
			if T >= thr[i] {
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
			t := pc + isa.WordSize
			var v uint64
			switch u.tag {
			case sbNop:
				// cost only
			case sbRdtsc:
				r[u.rd] = T
			case sbSettp:
				c.TP = r[u.rs1]
			case sbGettp:
				r[u.rd] = c.TP

			case sbAdd:
				r[u.rd] = r[u.rs1] + r[u.rs2]
			case sbSub:
				r[u.rd] = r[u.rs1] - r[u.rs2]
			case sbMul:
				r[u.rd] = r[u.rs1] * r[u.rs2]
			case sbDiv, sbRem:
				if int64(r[u.rs2]) == 0 {
					break wave // faults on the general path
				}
				d := int64(r[u.rs2])
				nn := int64(r[u.rs1])
				if nn == math.MinInt64 && d == -1 {
					if u.tag == sbDiv {
						r[u.rd] = uint64(nn) // overflow wraps, no trap
					} else {
						r[u.rd] = 0
					}
				} else if u.tag == sbDiv {
					r[u.rd] = uint64(nn / d)
				} else {
					r[u.rd] = uint64(nn % d)
				}
			case sbAnd:
				r[u.rd] = r[u.rs1] & r[u.rs2]
			case sbOr:
				r[u.rd] = r[u.rs1] | r[u.rs2]
			case sbXor:
				r[u.rd] = r[u.rs1] ^ r[u.rs2]
			case sbShl:
				r[u.rd] = r[u.rs1] << (r[u.rs2] & 63)
			case sbShr:
				r[u.rd] = r[u.rs1] >> (r[u.rs2] & 63)
			case sbSar:
				r[u.rd] = uint64(int64(r[u.rs1]) >> (r[u.rs2] & 63))
			case sbSlt:
				r[u.rd] = b2u(int64(r[u.rs1]) < int64(r[u.rs2]))
			case sbSltu:
				r[u.rd] = b2u(r[u.rs1] < r[u.rs2])

			case sbAddi:
				r[u.rd] = r[u.rs1] + uint64(u.imm)
			case sbMuli:
				r[u.rd] = r[u.rs1] * uint64(u.imm)
			case sbAndi:
				r[u.rd] = r[u.rs1] & uint64(u.imm)
			case sbOri:
				r[u.rd] = r[u.rs1] | uint64(u.imm)
			case sbXori:
				r[u.rd] = r[u.rs1] ^ uint64(u.imm)
			case sbShli:
				r[u.rd] = r[u.rs1] << (uint64(u.imm) & 63)
			case sbShri:
				r[u.rd] = r[u.rs1] >> (uint64(u.imm) & 63)
			case sbSari:
				r[u.rd] = uint64(int64(r[u.rs1]) >> (uint64(u.imm) & 63))
			case sbSlti:
				r[u.rd] = b2u(int64(r[u.rs1]) < u.imm)

			case sbLdi:
				r[u.rd] = uint64(u.imm)
			case sbLdih:
				r[u.rd] = r[u.rd]&0xFFFF_FFFF | uint64(u.imm)<<32

			case sbLdb:
				if v, f = m.loadN(c, r[u.rs1]+uint64(u.imm), 1); f == nil {
					r[u.rd] = uint64(int64(int8(v)))
				}
			case sbLdbu:
				if v, f = m.loadN(c, r[u.rs1]+uint64(u.imm), 1); f == nil {
					r[u.rd] = v
				}
			case sbLdh:
				if v, f = m.loadN(c, r[u.rs1]+uint64(u.imm), 2); f == nil {
					r[u.rd] = uint64(int64(int16(v)))
				}
			case sbLdhu:
				if v, f = m.loadN(c, r[u.rs1]+uint64(u.imm), 2); f == nil {
					r[u.rd] = v
				}
			case sbLdw:
				if v, f = m.loadN(c, r[u.rs1]+uint64(u.imm), 4); f == nil {
					r[u.rd] = uint64(int64(int32(v)))
				}
			case sbLdwu:
				if v, f = m.loadN(c, r[u.rs1]+uint64(u.imm), 4); f == nil {
					r[u.rd] = v
				}
			case sbLdd:
				if v, f = m.loadN(c, r[u.rs1]+uint64(u.imm), 8); f == nil {
					r[u.rd] = v
				}

			case sbStb:
				f = m.storeN(c, r[u.rs1]+uint64(u.imm), 1, r[u.rd])
			case sbSth:
				f = m.storeN(c, r[u.rs1]+uint64(u.imm), 2, r[u.rd])
			case sbStw:
				f = m.storeN(c, r[u.rs1]+uint64(u.imm), 4, r[u.rd])
			case sbStd:
				f = m.storeN(c, r[u.rs1]+uint64(u.imm), 8, r[u.rd])

			case sbFld:
				if v, f = m.loadN(c, r[u.rs1]+uint64(u.imm), 8); f == nil {
					fr[u.rd] = math.Float64frombits(v)
				}
			case sbFst:
				f = m.storeN(c, r[u.rs1]+uint64(u.imm), 8, math.Float64bits(fr[u.rd]))
			case sbFadd:
				fr[u.rd] = fr[u.rs1] + fr[u.rs2]
			case sbFsub:
				fr[u.rd] = fr[u.rs1] - fr[u.rs2]
			case sbFmul:
				fr[u.rd] = fr[u.rs1] * fr[u.rs2]
			case sbFdiv:
				fr[u.rd] = fr[u.rs1] / fr[u.rs2]
			case sbFmin:
				fr[u.rd] = math.Min(fr[u.rs1], fr[u.rs2])
			case sbFmax:
				fr[u.rd] = math.Max(fr[u.rs1], fr[u.rs2])
			case sbFsqrt:
				fr[u.rd] = math.Sqrt(fr[u.rs1])
			case sbFabs:
				fr[u.rd] = math.Abs(fr[u.rs1])
			case sbFneg:
				fr[u.rd] = -fr[u.rs1]
			case sbFmov:
				fr[u.rd] = fr[u.rs1]
			case sbFlt:
				r[u.rd] = b2u(fr[u.rs1] < fr[u.rs2])
			case sbFle:
				r[u.rd] = b2u(fr[u.rs1] <= fr[u.rs2])
			case sbFeq:
				r[u.rd] = b2u(fr[u.rs1] == fr[u.rs2])
			case sbItof:
				fr[u.rd] = float64(int64(r[u.rs1]))
			case sbFtoi:
				r[u.rd] = uint64(int64(fr[u.rs1]))
			case sbFmvi:
				fr[u.rd] = math.Float64frombits(r[u.rs1])
			case sbImvf:
				r[u.rd] = math.Float64bits(fr[u.rs1])

			case sbJmp:
				t = pc + uint64(u.imm)
			case sbJal:
				r[u.rd] = pc + isa.WordSize
				t = pc + uint64(u.imm)
			case sbJr:
				t = r[u.rs1]
			case sbJalr:
				t = r[u.rs1]
				r[u.rd] = pc + isa.WordSize
			case sbBeq:
				if r[u.rs1] == r[u.rs2] {
					t = pc + uint64(u.imm)
				}
			case sbBne:
				if r[u.rs1] != r[u.rs2] {
					t = pc + uint64(u.imm)
				}
			case sbBlt:
				if int64(r[u.rs1]) < int64(r[u.rs2]) {
					t = pc + uint64(u.imm)
				}
			case sbBge:
				if int64(r[u.rs1]) >= int64(r[u.rs2]) {
					t = pc + uint64(u.imm)
				}
			case sbBltu:
				if r[u.rs1] < r[u.rs2] {
					t = pc + uint64(u.imm)
				}
			case sbBgeu:
				if r[u.rs1] >= r[u.rs2] {
					t = pc + uint64(u.imm)
				}

			case sbFuseAluBr:
				// Tied peers sit one cycle away, so the pair always
				// splits: commit the ALU half alone, exactly as the
				// tstar guard does in runUops; the branch's standalone
				// micro-op is in the next slot.
				switch isa.Op(u.op) {
				case isa.OpAddi:
					r[u.rd] = r[u.rs1] + uint64(u.imm)
				case isa.OpLdi:
					r[u.rd] = uint64(u.imm)
				case isa.OpAdd:
					r[u.rd] = r[u.rs1] + r[u.rs2]
				case isa.OpSub:
					r[u.rd] = r[u.rs1] - r[u.rs2]
				case isa.OpAnd:
					r[u.rd] = r[u.rs1] & r[u.rs2]
				case isa.OpOr:
					r[u.rd] = r[u.rs1] | r[u.rs2]
				case isa.OpXor:
					r[u.rd] = r[u.rs1] ^ r[u.rs2]
				case isa.OpAndi:
					r[u.rd] = r[u.rs1] & uint64(u.imm)
				case isa.OpOri:
					r[u.rd] = r[u.rs1] | uint64(u.imm)
				case isa.OpXori:
					r[u.rd] = r[u.rs1] ^ uint64(u.imm)
				case isa.OpSlt:
					r[u.rd] = b2u(int64(r[u.rs1]) < int64(r[u.rs2]))
				case isa.OpSltu:
					r[u.rd] = b2u(r[u.rs1] < r[u.rs2])
				case isa.OpSlti:
					r[u.rd] = b2u(int64(r[u.rs1]) < u.imm)
				}
			case sbFuseAddiLdd, sbFuseAddiFld, sbFuseAddiStd, sbFuseAddiFst:
				// Split: addi half only; the memory half's standalone
				// micro-op is in the next slot.
				r[u.rd] = r[u.rs1] + uint64(u.imm)
			case sbFuseLdiLdih:
				// Split: the ldi half rebuilds the sign-extended low
				// half; the ldih standalone micro-op is next.
				r[u.rd] = uint64(int64(int32(uint32(u.imm))))

			default:
				// sbSlowTag, atomics, or anything unclassified: resolve
				// on the general path.
				break wave
			}
			if f != nil {
				break wave
			}
			pcs[i] = t
			c.PC = t
			// Additive, not T+cost: loadN/storeN may have charged a
			// dynamic TLB walk cost to c.Clock during execution.
			nc := c.Clock + uint64(u.cost)
			c.Clock = nc
			clocks[i] = nc
			ret[i]++
			ring[T&(ringSpan-1)] = b &^ (1 << uint(i))
			if nc-T >= ringSafe {
				break // leap past the ring: rebase re-files everyone
			}
			ring[nc&(ringSpan-1)] |= 1 << uint(i)
		}
		// One cancellation poll per rebase: a cancel waits at most one
		// pass (ringSafe simulated cycles) before the wave hands back and
		// runRound surfaces it.
		if m.canceled() {
			break
		}
	}
	steps := m.Steps
	for i := 0; i < nm; i++ {
		mems[i].C.Instrs += ret[i]
		m.Steps += ret[i]
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
		switch u.tag {
		case sbSlowTag:
			res = sbStep
			break uloop

		case sbNop:
			// cost only
		case sbRdtsc:
			r[u.rd] = s.Clock
		case sbSettp:
			s.TP = r[u.rs1]
		case sbGettp:
			r[u.rd] = s.TP

		case sbAdd:
			r[u.rd] = r[u.rs1] + r[u.rs2]
		case sbSub:
			r[u.rd] = r[u.rs1] - r[u.rs2]
		case sbMul:
			r[u.rd] = r[u.rs1] * r[u.rs2]
		case sbDiv:
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
		case sbRem:
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
		case sbAnd:
			r[u.rd] = r[u.rs1] & r[u.rs2]
		case sbOr:
			r[u.rd] = r[u.rs1] | r[u.rs2]
		case sbXor:
			r[u.rd] = r[u.rs1] ^ r[u.rs2]
		case sbShl:
			r[u.rd] = r[u.rs1] << (r[u.rs2] & 63)
		case sbShr:
			r[u.rd] = r[u.rs1] >> (r[u.rs2] & 63)
		case sbSar:
			r[u.rd] = uint64(int64(r[u.rs1]) >> (r[u.rs2] & 63))
		case sbSlt:
			r[u.rd] = b2u(int64(r[u.rs1]) < int64(r[u.rs2]))
		case sbSltu:
			r[u.rd] = b2u(r[u.rs1] < r[u.rs2])

		case sbAddi:
			r[u.rd] = r[u.rs1] + uint64(u.imm)
		case sbMuli:
			r[u.rd] = r[u.rs1] * uint64(u.imm)
		case sbAndi:
			r[u.rd] = r[u.rs1] & uint64(u.imm)
		case sbOri:
			r[u.rd] = r[u.rs1] | uint64(u.imm)
		case sbXori:
			r[u.rd] = r[u.rs1] ^ uint64(u.imm)
		case sbShli:
			r[u.rd] = r[u.rs1] << (uint64(u.imm) & 63)
		case sbShri:
			r[u.rd] = r[u.rs1] >> (uint64(u.imm) & 63)
		case sbSari:
			r[u.rd] = uint64(int64(r[u.rs1]) >> (uint64(u.imm) & 63))
		case sbSlti:
			r[u.rd] = b2u(int64(r[u.rs1]) < u.imm)

		case sbLdi:
			r[u.rd] = uint64(u.imm)
		case sbLdih:
			r[u.rd] = r[u.rd]&0xFFFF_FFFF | uint64(u.imm)<<32

		case sbLdb:
			if v, f = m.loadN(s, r[u.rs1]+uint64(u.imm), 1); f != nil {
				goto fault
			}
			r[u.rd] = uint64(int64(int8(v)))
		case sbLdbu:
			if v, f = m.loadN(s, r[u.rs1]+uint64(u.imm), 1); f != nil {
				goto fault
			}
			r[u.rd] = v
		case sbLdh:
			if v, f = m.loadN(s, r[u.rs1]+uint64(u.imm), 2); f != nil {
				goto fault
			}
			r[u.rd] = uint64(int64(int16(v)))
		case sbLdhu:
			if v, f = m.loadN(s, r[u.rs1]+uint64(u.imm), 2); f != nil {
				goto fault
			}
			r[u.rd] = v
		case sbLdw:
			if v, f = m.loadN(s, r[u.rs1]+uint64(u.imm), 4); f != nil {
				goto fault
			}
			r[u.rd] = uint64(int64(int32(v)))
		case sbLdwu:
			if v, f = m.loadN(s, r[u.rs1]+uint64(u.imm), 4); f != nil {
				goto fault
			}
			r[u.rd] = v
		case sbLdd:
			if v, f = m.loadN(s, r[u.rs1]+uint64(u.imm), 8); f != nil {
				goto fault
			}
			r[u.rd] = v

		case sbStb:
			if f = m.storeN(s, r[u.rs1]+uint64(u.imm), 1, r[u.rd]); f != nil {
				goto fault
			}
			exit = *genp != gen
		case sbSth:
			if f = m.storeN(s, r[u.rs1]+uint64(u.imm), 2, r[u.rd]); f != nil {
				goto fault
			}
			exit = *genp != gen
		case sbStw:
			if f = m.storeN(s, r[u.rs1]+uint64(u.imm), 4, r[u.rd]); f != nil {
				goto fault
			}
			exit = *genp != gen
		case sbStd:
			if f = m.storeN(s, r[u.rs1]+uint64(u.imm), 8, r[u.rd]); f != nil {
				goto fault
			}
			exit = *genp != gen

		case sbFld:
			if v, f = m.loadN(s, r[u.rs1]+uint64(u.imm), 8); f != nil {
				goto fault
			}
			fr[u.rd] = math.Float64frombits(v)
		case sbFst:
			if f = m.storeN(s, r[u.rs1]+uint64(u.imm), 8, math.Float64bits(fr[u.rd])); f != nil {
				goto fault
			}
			exit = *genp != gen
		case sbFadd:
			fr[u.rd] = fr[u.rs1] + fr[u.rs2]
		case sbFsub:
			fr[u.rd] = fr[u.rs1] - fr[u.rs2]
		case sbFmul:
			fr[u.rd] = fr[u.rs1] * fr[u.rs2]
		case sbFdiv:
			fr[u.rd] = fr[u.rs1] / fr[u.rs2]
		case sbFmin:
			fr[u.rd] = math.Min(fr[u.rs1], fr[u.rs2])
		case sbFmax:
			fr[u.rd] = math.Max(fr[u.rs1], fr[u.rs2])
		case sbFsqrt:
			fr[u.rd] = math.Sqrt(fr[u.rs1])
		case sbFabs:
			fr[u.rd] = math.Abs(fr[u.rs1])
		case sbFneg:
			fr[u.rd] = -fr[u.rs1]
		case sbFmov:
			fr[u.rd] = fr[u.rs1]
		case sbFlt:
			r[u.rd] = b2u(fr[u.rs1] < fr[u.rs2])
		case sbFle:
			r[u.rd] = b2u(fr[u.rs1] <= fr[u.rs2])
		case sbFeq:
			r[u.rd] = b2u(fr[u.rs1] == fr[u.rs2])
		case sbItof:
			fr[u.rd] = float64(int64(r[u.rs1]))
		case sbFtoi:
			r[u.rd] = uint64(int64(fr[u.rs1]))
		case sbFmvi:
			fr[u.rd] = math.Float64frombits(r[u.rs1])
		case sbImvf:
			r[u.rd] = math.Float64bits(fr[u.rs1])

		case sbJmp:
			t = pc + uint64(u.imm)
			s.Clock += uint64(u.cost)
			s.C.Instrs++
			m.Steps++
			n++
			goto branch
		case sbJal:
			r[u.rd] = pc + isa.WordSize
			t = pc + uint64(u.imm)
			s.Clock += uint64(u.cost)
			s.C.Instrs++
			m.Steps++
			n++
			goto branch
		case sbJr:
			t = r[u.rs1]
			s.Clock += uint64(u.cost)
			s.C.Instrs++
			m.Steps++
			n++
			goto branch
		case sbJalr:
			t = r[u.rs1]
			r[u.rd] = pc + isa.WordSize
			s.Clock += uint64(u.cost)
			s.C.Instrs++
			m.Steps++
			n++
			goto branch
		case sbBeq:
			t = pc + isa.WordSize
			if r[u.rs1] == r[u.rs2] {
				t = pc + uint64(u.imm)
			}
			s.Clock += uint64(u.cost)
			s.C.Instrs++
			m.Steps++
			n++
			goto branch
		case sbBne:
			t = pc + isa.WordSize
			if r[u.rs1] != r[u.rs2] {
				t = pc + uint64(u.imm)
			}
			s.Clock += uint64(u.cost)
			s.C.Instrs++
			m.Steps++
			n++
			goto branch
		case sbBlt:
			t = pc + isa.WordSize
			if int64(r[u.rs1]) < int64(r[u.rs2]) {
				t = pc + uint64(u.imm)
			}
			s.Clock += uint64(u.cost)
			s.C.Instrs++
			m.Steps++
			n++
			goto branch
		case sbBge:
			t = pc + isa.WordSize
			if int64(r[u.rs1]) >= int64(r[u.rs2]) {
				t = pc + uint64(u.imm)
			}
			s.Clock += uint64(u.cost)
			s.C.Instrs++
			m.Steps++
			n++
			goto branch
		case sbBltu:
			t = pc + isa.WordSize
			if r[u.rs1] < r[u.rs2] {
				t = pc + uint64(u.imm)
			}
			s.Clock += uint64(u.cost)
			s.C.Instrs++
			m.Steps++
			n++
			goto branch
		case sbBgeu:
			t = pc + isa.WordSize
			if r[u.rs1] >= r[u.rs2] {
				t = pc + uint64(u.imm)
			}
			s.Clock += uint64(u.cost)
			s.C.Instrs++
			m.Steps++
			n++
			goto branch

		case sbAxchg, sbAcas, sbAadd:
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
				switch u.tag {
				case sbAxchg:
					store = r[u.rs2]
				case sbAcas:
					if v == r[u.rd] {
						store = r[u.rs2]
					} else {
						doStore = false
					}
				case sbAadd:
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

		case sbFuseAluBr:
			// The ALU half commits unconditionally (one instruction is
			// always legal here); the guard decides whether the branch
			// half may commit back-to-back or must wait for the stop
			// checks — its standalone micro-op sits in the next slot.
			switch isa.Op(u.op) {
			case isa.OpAddi:
				r[u.rd] = r[u.rs1] + uint64(u.imm)
			case isa.OpLdi:
				r[u.rd] = uint64(u.imm)
			case isa.OpAdd:
				r[u.rd] = r[u.rs1] + r[u.rs2]
			case isa.OpSub:
				r[u.rd] = r[u.rs1] - r[u.rs2]
			case isa.OpAnd:
				r[u.rd] = r[u.rs1] & r[u.rs2]
			case isa.OpOr:
				r[u.rd] = r[u.rs1] | r[u.rs2]
			case isa.OpXor:
				r[u.rd] = r[u.rs1] ^ r[u.rs2]
			case isa.OpAndi:
				r[u.rd] = r[u.rs1] & uint64(u.imm)
			case isa.OpOri:
				r[u.rd] = r[u.rs1] | uint64(u.imm)
			case isa.OpXori:
				r[u.rd] = r[u.rs1] ^ uint64(u.imm)
			case isa.OpSlt:
				r[u.rd] = b2u(int64(r[u.rs1]) < int64(r[u.rs2]))
			case isa.OpSltu:
				r[u.rd] = b2u(r[u.rs1] < r[u.rs2])
			case isa.OpSlti:
				r[u.rd] = b2u(int64(r[u.rs1]) < u.imm)
			}
			if n+1 >= max || s.Clock+uint64(u.cost) >= tstar {
				// The branch half must wait for the stop checks; retire
				// the ALU half alone (its slot's shared retire) and let
				// the branch's standalone micro-op run next.
				s.PC = pc + isa.WordSize
				s.Clock += uint64(u.cost)
				s.C.Instrs++
				m.Steps++
				n++
				idx++
				goto post
			}
			s.Clock += uint64(u.cost)
			s.C.Instrs++
			m.Steps++
			n++
			{
				taken := false
				switch isa.Op(u.op2) {
				case isa.OpBeq:
					taken = r[u.rs3] == r[u.rs4]
				case isa.OpBne:
					taken = r[u.rs3] != r[u.rs4]
				case isa.OpBlt:
					taken = int64(r[u.rs3]) < int64(r[u.rs4])
				case isa.OpBge:
					taken = int64(r[u.rs3]) >= int64(r[u.rs4])
				case isa.OpBltu:
					taken = r[u.rs3] < r[u.rs4]
				case isa.OpBgeu:
					taken = r[u.rs3] >= r[u.rs4]
				}
				t = pc + 2*isa.WordSize
				if taken {
					t = pc + isa.WordSize + uint64(u.imm2)
				}
			}
			s.Clock += uint64(u.cost2)
			s.C.Instrs++
			m.Steps++
			n++
			goto branch

		case sbFuseAddiLdd, sbFuseAddiFld, sbFuseAddiStd, sbFuseAddiFst:
			if n+1 >= max || s.Clock+uint64(u.cost) >= tstar {
				// The memory half must wait for the stop checks: retire
				// the addi alone; the load/store's standalone micro-op
				// sits in the next slot.
				r[u.rd] = r[u.rs1] + uint64(u.imm)
				break // shared retire
			}
			r[u.rd] = r[u.rs1] + uint64(u.imm)
			s.PC = pc + isa.WordSize // the pair's second half may fault
			s.Clock += uint64(u.cost)
			s.C.Instrs++
			m.Steps++
			n++
			va = r[u.rs3] + uint64(u.imm2)
			switch u.tag {
			case sbFuseAddiLdd:
				if v, f = m.loadN(s, va, 8); f != nil {
					goto fault
				}
				r[u.rd2] = v
			case sbFuseAddiFld:
				if v, f = m.loadN(s, va, 8); f != nil {
					goto fault
				}
				fr[u.rd2] = math.Float64frombits(v)
			case sbFuseAddiStd:
				if f = m.storeN(s, va, 8, r[u.rd2]); f != nil {
					goto fault
				}
				exit = *genp != gen
			case sbFuseAddiFst:
				if f = m.storeN(s, va, 8, math.Float64bits(fr[u.rd2])); f != nil {
					goto fault
				}
				exit = *genp != gen
			}
			s.PC = pc + 2*isa.WordSize
			s.Clock += uint64(u.cost2)
			s.C.Instrs++
			m.Steps++
			n++
			idx += 2
			goto post

		case sbFuseLdiLdih:
			if n+1 >= max || s.Clock+uint64(u.cost) >= tstar {
				// Retire the ldi alone: its immediate is the combined
				// constant's sign-extended low half; the ldih's
				// standalone micro-op rebuilds the top on the next slot.
				r[u.rd] = uint64(int64(int32(uint32(u.imm))))
				break // shared retire
			}
			r[u.rd] = uint64(u.imm)
			s.PC = pc + 2*isa.WordSize
			s.Clock += uint64(u.cost) + uint64(u.cost2)
			s.C.Instrs += 2
			m.Steps += 2
			n += 2
			idx += 2
			goto post
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
