package core

// Superblock micro-op compilation (fast loop only).
//
// The compiled page is the fast loop's only decoded form of code. Each
// executed code page — keyed on the physical page and its store
// generation — is compiled into an array of 16-byte micro-ops, and the
// micro-op is the decoded instruction: its isa.Op, its register fields
// (validated at compile time), the sign-extended immediate, and the
// cost, class, access size and sign extension of its isa.Info row — the
// one table that says where each opcode may run. The fast path states an
// inline opcode's semantics once, in one of two functions both executors
// call. runAhead is a run loop over everything that cannot trap: the
// isa.ClassPure opcodes (ALU, FP, branches, seqid, rdtsc ...) and the
// loads, which it retires only as plain TLB hits. commitOrdered is one
// step of what must commit at its place in the global order: settp,
// div/rem (isa.ClassOrdered), stores, the atomics and any load runAhead
// declined (TLB miss, page straddle, paging off). Neither executor has a
// switch of its own: runUops alternates the two until a stop, the cohort
// wave calls runAhead at every pop and commitOrdered when the popped
// micro-op is not runAhead's. An opcode neither implements takes
// commitOrdered's default arm: runUops hands the word to the interpreter
// leg (sbStep), the cohort wave hands back to the general path. That
// covers — through the sbSlow op byte — the isa.ClassInterp and
// isa.ClassEvent opcodes (privileged and system ops, SRET/SAVECTX/LDCTX's
// non-standard retirement), invalid words and words with a register field
// out of range. runUops executes straight-line superblocks (runs ending
// at a cross-page or misaligned control transfer, a default-arm word, a
// store into the executing page, or the page edge) with one combined stop
// check per instruction and zero per-instruction Lookup/Valid/priv
// overhead. Everything else — default-arm words, the first instruction
// after a fetch-window miss, and blacklisted self-modifying pages — is
// decoded from memory and runs through execInstr, the one interpreter
// leg (see runBatch).
//
// Bit-identity with the legacy loop, the reference the equivalence
// difftests compare against, rests on six invariants:
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
//     legacy loop: with either attached, runUops asks runAhead for one
//     micro-op at a time.
//  4. Run-ahead: the cohort wave retires a member's micro-ops out of the
//     global (clock, ID) order only through runAhead, keeps a snapshot of
//     what each run started from, and at its single exit takes back every
//     run that reaches past the stop position by restoring the snapshot
//     and calling runAhead again with the position as its clock bound —
//     so outside the wave the machine is in exactly the legacy loop's
//     state. What runs ahead is a pure micro-op (it touches nothing but
//     that member's registers, PC and clock and cannot trap, so it
//     commutes with every other member's commit) or a plain-hit load: one
//     page, paging on, resident in the member's own TLB, which cannot
//     trap and changes nothing a peer can see. The second call re-makes
//     the kept part exactly because everything it reads is what the first
//     read: (a) registers, PC, clock and the TLB hit counter come from
//     the snapshot; (b) the micro-ops are the member's compiled page,
//     which only the general path recompiles; (c) a TLB is filled only by
//     its own sequencer's ordered commits, each of which opens a new run,
//     and flushed only by kernel and firmware actions, which enter
//     through a wave exit; (d) TP is written only by settp, an ordered
//     commit; (e) memory: a popped store or atomic (an 8-byte store
//     whether or not it will store) is snooped against the physical
//     addresses of every member's outstanding loads *before* it commits,
//     and on an overlap (conservatively: per 8-byte span) the wave stops
//     at the store's own pop without committing it — as it does for a
//     store it cannot place: one that straddles a page, or whose page is
//     not write-resident in the member's TLB and would need a walk. So
//     every store the wave commits overlapped no outstanding load, and a
//     kept load re-reads the bytes it read. A declined load — anything
//     but a plain hit — retires nothing and counts nothing in runAhead:
//     like stores, atomics, div/rem, settp, faults, default-arm words and
//     threshold stops it happens only at a popped member's ordered
//     commit, the global minimum. The other thing a run-ahead micro-op
//     reads that a peer can write is its own code: a store commit
//     revalidates every member's page and stops the wave just after
//     itself if one moved; the exit re-makes what was ordered before the
//     store from the page as it was compiled.
//  5. Spin fast-forward: within one runAhead call, what a micro-op does
//     is a function of the PC, Regs and FRegs alone — memory, the
//     compiled page, the TLB, TP, CRs and the topology cannot change
//     during the call (runAhead stores nothing and loads only through
//     TLB hits) — except rdtsc, which reads the clock. So when two
//     pauses the call retires sit at the same PC with bit-identical Regs
//     and FRegs and no rdtsc retired between them, the span between them
//     is one iteration of a fixed point: every later iteration retires
//     the same K micro-ops in the same C cycles with the same H TLB hits
//     and comes back to the same state. spinPause retires k more whole
//     iterations at once — the count grows by k·K, the clock by k·C,
//     TLB.Hits by k·H, PC and registers stay — with k the largest whole
//     count that keeps the clock below the call's bound (and the run's
//     count inside waveMember.nrun). Two exclusions: an iteration that
//     retires rdtsc is never a fixed point (the clock it read may have
//     steered a branch and then been overwritten before the pause), and
//     FRegs compare by their bits (== calls +0 and -0 equal and never
//     matches a NaN). A skipped iteration loads exactly the addresses the
//     executed one recorded, so invariant 4(e)'s snoop covers it without
//     new entries; and the take-back's second call makes its skip by the
//     same rule against the stop position, which re-makes the kept
//     prefix exactly. Micro-ops executed one at a time stay capped by the
//     caller's max.
//  6. Counted spins: a spin-then-yield idle loop stores its counter plus
//     one on every pass, which ends every runAhead call, and the counter
//     changes the registers at every pause, so invariant 5 never applies
//     to it. An iteration that runs from a std at pc p back to p retires
//     k more whole iterations at once when its only carried state is the
//     std's 8-byte word. countWalk steps runAhead through one iteration,
//     one micro-op at a time, and follows which registers hold the word
//     plus a known offset (the std's register at the start; an ldd of
//     the word). Such a value may only move through addi, add and sub
//     with a loop-invariant operand, or be compared by a branch with a
//     loop-invariant one. The iteration must load the word, leave every
//     other register and every FReg as it found them, and bring the std
//     the word plus delta. Every later iteration is then this one with
//     each derived value delta further on — memory but for the word, the
//     page, the TLB, TP and the topology are fixed, as in invariant 5 —
//     so while every such compare keeps its outcome (countBound: the
//     value stays on its side of the other operand, without wrapping)
//     and the clock stays below the caller's bound, k iterations add
//     k*delta to the word and the register, k*C to the clock, k*K
//     retirements and k*H TLB hits, the std's own hit included
//     (countSkip). Only a std whose member's previous run started just
//     after it and retired a pause is probed, so other runs pay one
//     compare. runUops' stores are all in order, so a lone runner skips
//     up to tstar with nothing to check. In the wave the skipped stds are
//     ahead of the order, and invariant 4 covers them: (e)'s snoop of the
//     popped std covers them too (the same word, and no pop between), and
//     the word's page is no member's code page, or the std would have
//     stopped the wave. A peer that may read the word while the skip is
//     outstanding — a popped run whose loads meet the wave's filter of
//     skipped words, or an ordered load or atomic that overlaps one or
//     whose address would need a walk — stops the wave at its own pop,
//     its run taken back; a peer's store to the word meets the walk's
//     load of it in the snoop. The exit's take-back puts the word back
//     as the run's ordered std left it, then re-makes the walk, the
//     whole iterations ordered before the stop position in one skip and
//     the next std and its walk up to it (countRemake). The k stds are one
//     write, so the page's store generation moves once: only whether it
//     moved is read. With a profiler or a fault plan attached nothing is
//     skipped (invariant 3).
//
// Compiled pages are derived, host-side state: never snapshotted,
// rebuilt on demand after a restore or fork (see snapshot.go).

import (
	"encoding/binary"
	"math"

	"misp/internal/isa"
	"misp/internal/mem"
)

// placed is where an access of size bytes at va on c lands without a page
// walk: its physical address, and ok false when it straddles a page or
// its page is not resident in c's TLB (for writing, when write is set).
// With paging off the address is physical.
func placed(c *Sequencer, va, size uint64, write bool) (pa uint64, ok bool) {
	if ok = va&mem.PageMask+size <= mem.PageSize; !ok || c.CRs[isa.CR0]&isa.CR0Paging == 0 {
		return va, ok
	}
	pfn, ok := c.TLB.Peek(va, write)
	return uint64(pfn)<<mem.PageShift | va&mem.PageMask, ok
}

// sbUop is one compiled micro-op: the decoded instruction with its
// validation and cost lookup already resolved.
type sbUop struct {
	imm  int64 // sign-extended immediate
	op   uint8 // isa.Op, or sbSlow
	cost uint8 // opcode cost (isa.Info.Cost)
	rd   uint8
	rs1  uint8
	rs2  uint8
	// class is the opcode's isa.Class, ClassInterp for a malformed word.
	// The wave starts a run on a ClassLoad or ClassPure micro-op: a pure
	// one commutes with every other sequencer's commit, and a load runs
	// ahead only as a plain TLB hit under the wave's store snoop. Every
	// other class is commitOrdered's — stores and atomics write memory,
	// div/rem can trap, settp writes TP, which a run's snapshot does not
	// cover — or the default arm's.
	class isa.Class
	size  uint8 // isa.Info.Size: bytes a load, store or atomic moves
	sx    uint8 // a sign-extending load's shift, 64 - 8*size; 0 otherwise
}

// storeVA is the one definition of where a store or an atomic writes,
// given its sequencer's registers: the address and the byte count, 0 for
// an opcode that cannot store. An atomic counts as a store of its size
// whether or not it will store (a failing acas, a misaligned address).
func (u *sbUop) storeVA(r *[isa.NumRegs]uint64) (va, size uint64) {
	switch u.class {
	case isa.ClassStore:
		return r[u.rs1] + uint64(u.imm), uint64(u.size)
	case isa.ClassAtomic:
		return r[u.rs1], uint64(u.size)
	}
	return 0, 0
}

// loaded delivers a load's zero-extended bytes v: sign-extended as the
// opcode asks into Regs[rd], or as bits into FRegs[rd] for fld.
func (u *sbUop) loaded(s *Sequencer, v uint64) {
	v = uint64(int64(v<<(u.sx&63)) >> (u.sx & 63))
	if isa.Op(u.op) == isa.OpFld {
		s.FRegs[u.rd] = math.Float64frombits(v)
	} else {
		s.Regs[u.rd] = v
	}
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

// sbClassify maps one decoded instruction to its micro-op: its class,
// access size and sign extension are its isa.Info row's, and an opcode
// whose class is not inline keeps the op byte sbSlow. So does a malformed
// word, for which execInstr raises TrapBadInstr; its register fields stay
// zero, so every micro-op's fields index the register files (runAhead
// reads Regs[rd] before it looks at the op).
func sbClassify(in isa.Instr) sbUop {
	if malformed(in) {
		return sbUop{op: sbSlow}
	}
	info := isa.Lookup(in.Op)
	u := sbUop{imm: int64(in.Imm), op: sbSlow, rd: in.Rd, rs1: in.Rs1, rs2: in.Rs2, class: info.Class, size: info.Size}
	if info.Signed {
		u.sx = 64 - 8*info.Size
	}
	if info.Class.Inline() {
		u.op, u.cost = uint8(in.Op), uint8(info.Cost)
	}
	return u
}

// waveRunAhead caps how many micro-ops one runAhead call retires for a
// popped cohort member. A constant, not a knob: a pop costs the same
// whatever the run's length (one snapshot, one min scan), so a longer run
// only spreads it, until runs end at the member's next store anyway —
// swept 16/32/64/128/256 on the 16 apps at ref, MISP 1x8, at
// 5.46-5.82 / 5.25-5.36 / 4.61-5.09 / 4.57-4.88 / 4.61-4.86 ns/instr
// (DESIGN.md §13). It also bounds what one wave exit re-makes per member,
// the cancellation latency and the size of waveSnap.
const waveRunAhead = 64

// spinRunMax bounds what one runAhead call retires through its skip, so
// that with the at most waveRunAhead micro-ops it executes the run's count
// still fits waveMember.nrun.
const spinRunMax = math.MaxUint32 - waveRunAhead

// spinRec is runAhead's record of the latest pause it retired in the
// current call (invariant 5): its PC — ^0, which no aligned PC equals,
// when there is none — the call's retirement count, clock and TLB hit
// count there, the registers, and whether an rdtsc has retired since.
// skipped is what the call's skip retired: a call skips at most once,
// since its k is the largest the bounds allow. Host-side scratch, one
// per machine: reset by every call, never snapshotted.
type spinRec struct {
	pc       uint64
	n        int
	nc, hits uint64
	clk      bool
	skipped  uint32
	regs     [isa.NumRegs]uint64
	fregs    [isa.NumRegs]float64
}

// spinPause is invariant 5 at a pause at pc that runAhead is about to
// retire, n micro-ops into the call with the clock at nc < lim. When the
// span since the call's previous pause is one iteration of a fixed point
// it retires k more whole iterations and returns the micro-ops and cycles
// they add (TLB.Hits it adds itself); otherwise it records this pause and
// returns zeros.
func (m *Machine) spinPause(c *Sequencer, pc uint64, n int, nc, lim uint64) (dn int, dc uint64) {
	sr := &m.spin
	if sr.clk || pc != sr.pc || c.Regs != sr.regs || !sameBits(&c.FRegs, &sr.fregs) {
		sr.pc, sr.n, sr.nc, sr.hits, sr.clk = pc, n, nc, c.TLB.Hits, false
		sr.regs, sr.fregs = c.Regs, c.FRegs
		return 0, 0
	}
	// iC is at least the pause's own cost, so never 0.
	iK, iC, iH := uint64(n-sr.n), nc-sr.nc, c.TLB.Hits-sr.hits
	k := min((lim-1-nc)/iC, (spinRunMax-min(uint64(n), spinRunMax))/iK)
	dn, dc = int(k*iK), k*iC
	c.TLB.Hits += k * iH
	sr.n, sr.nc, sr.hits = n+dn, nc+dc, c.TLB.Hits
	if k != 0 {
		sr.skipped = uint32(dn)
		m.spinSkips++
		m.spinInstrs += uint64(dn)
	}
	return dn, dc
}

// sameBits reports whether two float register files hold the same bits.
func sameBits(a, b *[isa.NumRegs]float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// countRec is one iteration of a counted spin (invariant 6): the pc of
// its std, the physical address of the counter word the std writes, the
// register that carries the word's value to it and the step delta it
// grows by, and what one whole iteration retires — micro-ops, cycles and
// TLB hits, the std's own included. k is how many iterations a skip
// retired at once, 0 for none.
type countRec struct {
	pc, pa, delta uint64
	k, iK, iC, iH uint64
	reg           uint8
}

// countCmp is a compare-branch of the probe's iteration between a value
// derived from the counter word, v, and a loop-invariant one, b.
type countCmp struct {
	v, b   uint64
	signed bool
}

// countProbe is countWalk's scratch, one per machine: which registers
// hold the counter word plus a known offset (on, off), the registers the
// iteration started from, its compares of a derived value, one step's
// load address, and the iteration it accepted. Host-side, never
// snapshotted.
type countProbe struct {
	rec   countRec
	on    [isa.NumRegs]bool
	off   [isa.NumRegs]uint64
	regs  [isa.NumRegs]uint64
	fregs [isa.NumRegs]float64
	cmps  [waveRunAhead]countCmp
	one   [waveRunAhead]uint64
}

// regUse is which integer register fields a pure or load micro-op reads
// (rs1, rs2, rdIn) and whether it writes Regs[rd] (rdOut).
type regUse struct{ rs1, rs2, rdIn, rdOut bool }

// countUse is regUse per opcode, taken from its isa format — the one
// statement of its operands: a memory operand reads rs1, and an integer
// rd is written, except that ldih also reads it. Only the rows of the
// opcodes runAhead runs are read.
var countUse = func() (t [isa.NumOps]regUse) {
	for op := range t {
		u := &t[op]
		for _, o := range isa.Lookup(isa.Op(op)).Fmt.Operands() {
			switch {
			case o.Kind == isa.OpndMem || o.Kind == isa.OpndReg && o.Reg == isa.FieldRs1:
				u.rs1 = true
			case o.Kind == isa.OpndReg && o.Reg == isa.FieldRs2:
				u.rs2 = true
			case o.Kind == isa.OpndReg && o.Reg == isa.FieldRd:
				u.rdOut = true
			}
		}
		u.rdIn = isa.Op(op) == isa.OpLdih
	}
	return t
}()

// countWalk is invariant 6's probe. c has just committed the std at p,
// which left it at p+8 with the clock at nc. countWalk steps runAhead one
// micro-op at a time — so each does exactly what runAhead makes it do —
// while fewer than max have retired, the clock is below lim and c is not
// back at p, and follows which registers hold the counter word the std
// wrote plus a known offset: the std's own register at the start, and an
// ldd of exactly that word. Such a value may only move through addi, add
// and sub with a loop-invariant operand, or be compared by a branch with
// a loop-invariant one; anything else that reads it, and rdtsc, ends the
// walk there (so does any other load that overlaps the word). It returns
// what the walk retired as runAhead does, with its loads recorded in
// loads when that is non-nil, and whether it retired a pause.
//
// k is how many more whole iterations may retire at once, 0 for none:
// the walk came back to p, loaded the word, left every register but the
// std's own and every FReg as it found them, and the std's register
// holds the word plus delta — so each later iteration is this one with
// the word and every derived value delta further on, as long as every
// branch on a derived value keeps its outcome (countBound) and the
// clock stays below lim. The iteration is in m.count.rec.
func (m *Machine) countWalk(c *Sequencer, ub *[sbSlots]sbUop, loads *[waveRunAhead]uint64, wva, p, nc, lim uint64, max int) (n int, pc, ncOut uint64, nl int, lb uint64, paused bool, k uint64) {
	pr, st, r := &m.count, &ub[(p-wva)>>3], &c.Regs
	pc = p + isa.WordSize
	va := r[st.rs1] + uint64(st.imm)
	pa, ok := placed(c, va, 8, true)
	if !ok || va%8 != 0 || st.rd == st.rs1 {
		n, pc, nc, nl, lb = runAhead(m, c, ub, loads, wva, pc, nc, lim, max)
		return n, pc, nc, nl, lb, m.spin.pc != ^uint64(0), 0
	}
	max = min(max, waveRunAhead) // what the scratch holds
	pr.regs, pr.fregs = c.Regs, c.FRegs
	pr.on, pr.on[st.rd], pr.off[st.rd] = [isa.NumRegs]bool{}, true, 0
	c0, h0 := nc, c.TLB.Hits
	ncmp, loaded := 0, false
	for ok && n < max && pc != p {
		off := pc - wva
		if off >= mem.PageSize || off&7 != 0 || ub[off>>3].class < isa.ClassLoad {
			break
		}
		u := &ub[off>>3]
		op, use := isa.Op(u.op), &countUse[u.op]
		a, b := use.rs1 && pr.on[u.rs1], use.rs2 && pr.on[u.rs2]
		out, o := false, uint64(0)
		switch {
		case op == isa.OpAddi && a:
			out, o = true, pr.off[u.rs1]+uint64(u.imm)
		case op == isa.OpAdd && a && !b:
			out, o = true, pr.off[u.rs1]+r[u.rs2]
		case op == isa.OpAdd && b && !a:
			out, o = true, pr.off[u.rs2]+r[u.rs1]
		case op == isa.OpSub && a && !b:
			out, o = true, pr.off[u.rs1]-r[u.rs2]
		case op >= isa.OpBeq && op <= isa.OpBgeu && a != b:
			v, w := r[u.rs1], r[u.rs2]
			if b {
				v, w = w, v
			}
			pr.cmps[ncmp] = countCmp{v, w, op == isa.OpBlt || op == isa.OpBge}
			ncmp++
		case a || b || use.rdIn && pr.on[u.rd] || op == isa.OpRdtsc:
			ok = false
			continue
		}
		dn, npc, nnc, dl, dlb := runAhead(m, c, ub, &pr.one, wva, pc, nc, lim, 1)
		if dn == 0 {
			break
		}
		n, pc, nc, paused = n+1, npc, nnc, paused || op == isa.OpPause
		if dl != 0 {
			lp := pr.one[0]
			if loads != nil {
				loads[nl] = lp
			}
			nl, lb = nl+1, lb|dlb
			if lp+8 > pa && pa+8 > lp {
				ok = op == isa.OpLdd && lp == pa
				out, o, loaded = ok, 0, loaded || ok
			}
		}
		if use.rdOut {
			pr.on[u.rd], pr.off[u.rd] = out, o
		}
	}
	if !ok || pc != p || !loaded || nc >= lim || !sameBits(&c.FRegs, &pr.fregs) {
		return n, pc, nc, nl, lb, paused, 0
	}
	for i := range r {
		if i != int(st.rd) && (pr.on[i] || r[i] != pr.regs[i]) {
			return n, pc, nc, nl, lb, paused, 0
		}
	}
	rec := countRec{pc: p, pa: pa, delta: pr.off[st.rd], reg: st.rd,
		iK: uint64(n) + 1, iC: nc - c0 + uint64(st.cost), iH: c.TLB.Hits - h0 + 1}
	k = min((lim-1-nc)/rec.iC, (spinRunMax-uint64(n))/rec.iK)
	for _, cm := range pr.cmps[:ncmp] {
		k = min(k, countBound(cm.v, cm.b, rec.delta, cm.signed))
	}
	pr.rec = rec
	return n, pc, nc, nl, lb, paused, k
}

// countBound is how many steps of d keep v on the same side of b — below,
// equal or above, in the signed order when signed — without wrapping
// round, so that every compare of v with b keeps its outcome. A signed
// order is the unsigned one with the sign bit flipped, and flipping it
// commutes with adding d, so one unsigned rule serves both.
func countBound(v, b, d uint64, signed bool) uint64 {
	if signed {
		v, b = v^1<<63, b^1<<63
	}
	switch {
	case d == 0:
		return math.MaxUint64
	case v == b:
		return 0
	case int64(d) > 0 && v < b:
		return (b - v - 1) / d
	case int64(d) > 0:
		return (math.MaxUint64 - v) / d
	case v > b:
		return (v - b - 1) / -d
	}
	return v / -d
}

// countSkip retires k more whole iterations of the counted spin r at once
// on c, which is at r.pc in front of the std with r.reg holding the value
// it stores: the word takes what the k-th std writes and r.reg what the
// next one will, TLB.Hits grows by what k iterations hit, and the
// micro-ops and cycles they retire are returned. The k stores are one
// write, so the page's store generation moves once: only whether it moved
// is ever read (snapshot.go).
func (m *Machine) countSkip(c *Sequencer, r *countRec, k uint64) (dn, dc uint64) {
	v := c.Regs[r.reg]
	m.Phys.WriteU64(r.pa, v+(k-1)*r.delta)
	c.Regs[r.reg] = v + k*r.delta
	c.TLB.Hits += k * r.iH
	m.countSkips++
	m.countInstrs += k * r.iK
	return k * r.iK, k * r.iC
}

// countRemake is a wave exit's take-back of w's latest run when it made a
// counted-spin skip: s's registers, PC, clock and TLB hit count are back
// at the run's snapshot; countRemake puts the word back as the run's
// ordered std left it, uncounts the skip and re-makes what of the run is
// ordered before lim — the walk, the whole iterations whose every
// micro-op starts below lim in one skip, then the next std and its walk
// up to lim. Returns what runAhead would: the retirements kept, PC and
// clock.
func (m *Machine) countRemake(s *Sequencer, w *waveMember, lim uint64) (n int, pc, nc uint64) {
	sn, r := &w.snap, &w.cnt
	m.Phys.WriteU64(r.pa, sn.regs[r.reg])
	m.countSkips, m.countInstrs = m.countSkips-1, m.countInstrs-r.k*r.iK
	walk := int(r.iK - 1)
	if n, pc, nc, _, _ = runAhead(m, s, w.ub, nil, w.wva, sn.pc, sn.nc, lim, walk); pc != r.pc || nc >= lim {
		return n, pc, nc
	}
	q := min(r.k, (lim-1-nc)/r.iC)
	if q != 0 {
		dn, dc := m.countSkip(s, r, q)
		n, nc = n+int(dn), nc+dc
	}
	if q < r.k {
		// The next std is ordered before lim too: a TLB hit on a page no
		// member runs code from, so it commits as at its pop.
		u := &w.ub[(r.pc-w.wva)>>3]
		m.commitOrdered(s, u)
		dn, npc, nnc, _, _ := runAhead(m, s, w.ub, nil, w.wva, r.pc+isa.WordSize, nc+uint64(u.cost), lim, walk)
		n, pc, nc = n+1+dn, npc, nnc
	}
	return n, pc, nc
}

// skipHit reports whether a load of eight bytes at one of the physical
// addresses in loads overlaps the counter word of an outstanding
// counted-spin skip — one in the latest run of a member other than i.
func skipHit(wave []waveMember, i int, loads []uint64) bool {
	for j := range wave {
		if a := wave[j].cnt.pa; j != i && wave[j].cnt.k != 0 {
			for _, lp := range loads {
				if lp+8 > a && a+8 > lp {
					return true
				}
			}
		}
	}
	return false
}

// waveSnap is what the cohort wave keeps of a member's latest run so that
// its exit can take the run back and re-make the part that stays: the
// registers, PC, clock and TLB hit count the run started from, and the
// physical address of each load it retired, in order — what a peer's
// store is checked against before it commits.
type waveSnap struct {
	regs   [isa.NumRegs]uint64
	fregs  [isa.NumRegs]float64
	pc, nc uint64
	hits   uint64
	loads  [waveRunAhead]uint64
}

// waveMember is the cohort wave's state for one member, Machine.wave[i]
// beside mems[i]: per-machine scratch, so the cohort has no capacity. The
// wave resets what it reads before it writes (genp, thr, ret, nrun, nld)
// at entry and fills the rest for every member whose window validates.
//
// genp, dg, ub and wva are the member's window: the live page generation,
// its compile-time value, the micro-ops and the window's address — call
// invariants (only the general path refetches windows or recompiles
// pages), so per-commit revalidation is one live-generation compare. pc
// mirrors the member's PC (c.PC and c.Clock are written once per pop,
// after the run; a fault can only come from the ordered commit that opens
// a run, so fault dispatch reads current values) and ret counts its
// retirements, folded into C.Instrs and m.Steps at the wave's single exit
// — before any fault dispatch, so the kernel and the watchdog read current
// counts.
//
// thr is the first wave clock at which the member may not commit: the
// frozen outside event under the (clock, ID) order, the member's delivery
// threshold and the cycle/pause limit are all call constants, so — as
// in runBatch — they fold into one compare per pop (threshold). It only
// decides when the wave hands back; runRound's general turn then runs the
// individual checks. A member whose window fails validation keeps thr 0:
// it still takes part in the min scan and stops the wave when it pops as
// the minimum.
//
// nrun, skip, nld and lbloom describe the member's latest run: how many
// micro-ops it retired, how many of those its spin skip retired
// (invariant 5), how many of the executed ones were loads (their
// addresses are in snap.loads) and the granule filter over those
// addresses; snap is what the run started from. paused says the run
// retired a pause and cnt is its counted-spin skip, if it made one
// (cnt.k != 0, invariant 6); noCount is the std at which the probe last
// found nothing to skip, not probed again in this wave.
type waveMember struct {
	genp              *uint32
	dg, nrun, skip    uint32
	nld               uint8
	paused            bool
	ub                *[sbSlots]sbUop
	wva, pc, thr, ret uint64
	lbloom, noCount   uint64
	cnt               countRec
	snap              waveSnap
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

// runAhead is the fast path's one statement of what a micro-op that
// cannot trap does: starting at pc with the running clock nc, it retires
// micro-ops of c's compiled page ub (mapped at wva) while there are fewer
// than max, the clock is below lim and the next one is in the page and is
// either pure (isa.ClassPure) or a load that is a plain hit — inside one
// page, paging on, resident in c's own TLB — which counts its TLB hit
// here. It stops in front of anything else without touching a counter: a
// declined load, like every other opcode, is the caller's to commit in
// order. c.PC, c.Clock and the retirement counters are the caller's too.
//
// max caps the micro-ops executed one at a time. A spin loop's repeated
// iterations do not count against it: at a pause, spinPause may retire
// whole iterations of a fixed point at once (invariant 5), up to lim, and
// leaves in m.spin.skipped how many micro-ops that was.
//
// With loads non-nil (the cohort wave; max <= waveRunAhead) the k-th load
// executed also records its physical address in loads[k] and, in
// loadBloom, the bits of the one or two 8-byte granules the eight bytes at
// that address touch; nloads counts them. A skipped iteration loads what
// the executed one recorded.
func runAhead(m *Machine, c *Sequencer, ub *[sbSlots]sbUop, loads *[waveRunAhead]uint64, wva, pc, nc, lim uint64, max int) (n int, pcOut, ncOut uint64, nloads int, loadBloom uint64) {
	r := &c.Regs
	fr := &c.FRegs
	m.spin.pc, m.spin.skipped = ^uint64(0), 0
run:
	for n < max && nc < lim {
		off := pc - wva
		if off >= mem.PageSize || off&7 != 0 {
			break
		}
		u := &ub[off>>3]
		t := pc + isa.WordSize
		switch isa.Op(u.op) {
		case isa.OpNop, isa.OpFence:
			// cost only
		case isa.OpPause:
			goto pause
		case isa.OpRdtsc:
			r[u.rd] = nc
			m.spin.clk = true
		case isa.OpSeqid:
			r[u.rd] = m.seqid(c, u.imm)
		case isa.OpGettp:
			r[u.rd] = c.TP

		case isa.OpAdd:
			r[u.rd] = r[u.rs1] + r[u.rs2]
		case isa.OpSub:
			r[u.rd] = r[u.rs1] - r[u.rs2]
		case isa.OpMul:
			r[u.rd] = r[u.rs1] * r[u.rs2]
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

		case isa.OpLdb, isa.OpLdbu, isa.OpLdh, isa.OpLdhu, isa.OpLdw, isa.OpLdwu, isa.OpLdd, isa.OpFld:
			// A plain hit, or not this loop's: resident in c's own TLB
			// (so walked once, and below the encodable limit translate
			// checks), inside one page, paging on.
			va := r[u.rs1] + uint64(u.imm)
			pfn, ok := c.TLB.Peek(va, false)
			if !ok || va&mem.PageMask+uint64(u.size) > mem.PageSize || c.CRs[isa.CR0]&isa.CR0Paging == 0 {
				break run
			}
			c.TLB.Hits++
			pa := uint64(pfn)<<mem.PageShift | va&mem.PageMask
			u.loaded(c, m.readN(pa, uint(u.size)))
			if loads != nil {
				loads[nloads] = pa
				nloads++
				loadBloom |= 1<<(pa>>3&63) | 1<<((pa+7)>>3&63)
			}

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
			break run
		}
		pc = t
		nc += uint64(u.cost)
		n++
	}
	return n, pc, nc, nloads, loadBloom
pause:
	// Out of the loop, so the call does not make the loop spill what lives
	// across it on every micro-op.
	dn, dc := m.spinPause(c, pc, n, nc, lim)
	n, max, nc = n+dn, max+dn, nc+dc
	pc, nc, n = pc+isa.WordSize, nc+uint64(ub[(pc-wva)>>3].cost), n+1
	goto run
}

// commitOrdered executes the micro-op u at s.PC when it is one the
// executors run inline but only at its place in the global (clock, ID)
// order — it can trap, or touches memory, the TLB or TP: settp, div/rem,
// every load runAhead declined, stores and the atomics. ok is false for
// anything else (the default arm: nothing was done). On a fault nothing
// was committed. Otherwise the caller retires the micro-op: PC, u.cost on
// top of s.Clock (which loadN/storeN may have charged a TLB walk) and the
// counters. stored reports that it wrote memory (at u.storeVA).
func (m *Machine) commitOrdered(s *Sequencer, u *sbUop) (f *trapFault, stored, ok bool) {
	r := &s.Regs
	switch isa.Op(u.op) {
	case isa.OpSettp:
		s.TP = r[u.rs1]
	case isa.OpDiv, isa.OpRem:
		n, d := int64(r[u.rs1]), int64(r[u.rs2])
		if d == 0 {
			f = &trapFault{trap: isa.TrapDivZero, info: s.PC}
			break
		}
		if n == math.MinInt64 && d == -1 {
			d = 1 // overflow wraps, no trap: quotient n, remainder 0
		}
		if isa.Op(u.op) == isa.OpDiv {
			r[u.rd] = uint64(n / d)
		} else {
			r[u.rd] = uint64(n % d)
		}
	case isa.OpLdb, isa.OpLdbu, isa.OpLdh, isa.OpLdhu, isa.OpLdw, isa.OpLdwu, isa.OpLdd, isa.OpFld:
		var v uint64
		if v, f = m.loadN(s, r[u.rs1]+uint64(u.imm), uint(u.size)); f == nil {
			u.loaded(s, v)
		}
	case isa.OpStb, isa.OpSth, isa.OpStw, isa.OpStd, isa.OpFst:
		v := r[u.rd]
		if isa.Op(u.op) == isa.OpFst {
			v = math.Float64bits(s.FRegs[u.rd])
		}
		va, size := u.storeVA(r)
		f = m.storeN(s, va, uint(size), v)
		stored = f == nil
	case isa.OpAxchg, isa.OpAcas, isa.OpAadd:
		va, _ := u.storeVA(r)
		if va%8 != 0 {
			f = &trapFault{trap: isa.TrapBadInstr, info: va}
			break
		}
		var old uint64
		if old, f = m.loadN(s, va, 8); f != nil {
			break
		}
		store := r[u.rs2]
		if isa.Op(u.op) == isa.OpAadd {
			store += old
		}
		if isa.Op(u.op) != isa.OpAcas || old == r[u.rd] {
			if f = m.storeN(s, va, 8, store); f != nil {
				break
			}
			stored = true
		}
		r[u.rd] = old
	default:
		return nil, false, false
	}
	return f, stored, true
}

// runCohortWave drives a cohort of running sequencers through the
// legacy commit order using compiled micro-ops only. The globally
// earliest commit belongs to the member with the lowest clock, the lowest
// index (= lowest sequencer ID, since mems is in ID order) on a tie: one
// min scan over the nm member clocks per pop — no sort, no capacity (the
// members and their wave state are per-machine scratch, m.mems[:nm] beside
// m.wave[:nm]) and no tie or lockstep structure required: phase-shifted
// members interleave at full speed. This is the paper's global commit rule
// ("exactly one instruction commits machine-wide at a time, ordered by
// (clock, sequencer ID)") executed directly.
//
// Only called with m.prof == nil and m.plan == nil (runRound's sbFast): the
// profiler's per-retirement events and the fault plane's injection probes
// stay on runBatch (runUops / the interpreter leg) instead of being
// duplicated here.
//
// Correctness: while every commit is plain, the outside horizon and
// each member's delivery threshold are frozen, and fetch windows /
// compiled pages can only be invalidated by stores, which bump the
// live page generation checked at every pop. The popped member is by
// construction the (clock, ID) minimum among members, and it commits
// only while it precedes the frozen outside event under the same
// order, so the sequence of ordered commits is exactly the legacy
// loop's.
//
// Run-ahead: one indirect jump fed an interleave of eight instruction
// streams mispredicts on most commits, and a dispatch inside this
// function would spill its state around every micro-op, so the popped
// member's commit and what follows it run in the leaf, runAhead, whose
// loop the compiler keeps in registers: up to waveRunAhead executed
// micro-ops that are pure or plain-hit loads, in the page and below the
// member's own threshold, plus whatever a spin loop's fast-forward or a
// counted spin's skip retires at once (invariants 5 and 6), after which
// the member's clock is written once. The first of them is the ordered commit; when the popped
// micro-op is not runAhead's (its class byte says so, or it is a load
// runAhead declines), commitOrdered makes the ordered commit and the run
// follows it. The wave snapshots the member (waveSnap) just before each
// run. The early retirements are not wrong — only a store into a load's
// bytes or a member's page can change them — unless the wave stops at a
// position ordered before them. Every stop leaves through the one exit
// with that position in (T, i): a popped member that may not commit
// (threshold, left the page, stale page, default-arm word), faults (a
// load or store, div by zero, a misaligned atomic), or whose store would
// hit a peer's load or cannot be placed stops at its own pop, nothing
// committed; a store that moved a member's page stops just after itself;
// a cancel stops at the earliest member's next commit. The exit takes
// back every run that reaches past (T, i) — restore the snapshot, run
// again up to the position; invariants 4 to 6 in the file header say why
// that re-makes the kept part exactly — then folds the counters, then
// dispatches the fault: the faulting member's later-ordered peers are
// where the legacy loop has them.
func (m *Machine) runCohortWave(nm int, outT uint64, outID int) (progress, unclean bool) {
	mems, evts, clocks, wave := m.mems[:nm], m.evts[:nm], m.clocks[:nm], m.wave[:nm]
	limit := min(m.cycLimit, m.pauseLimit)
	m.sbRuns++
	m.waveExits++
	for i := range wave {
		c, w := mems[i], &wave[i]
		w.genp, w.thr, w.ret, w.nrun, w.nld = nil, 0, 0, 0, 0
		w.paused, w.noCount, w.cnt.k = false, ^uint64(0), 0
		if c.winGen == nil || c.sb == nil || *c.winGen != c.sb.gen {
			continue
		}
		w.genp, w.dg, w.ub, w.wva, w.pc = c.winGen, c.sb.gen, &c.sb.uops, c.winVA, c.PC
		w.thr = threshold(c.ID, outT, outID, evts[i], limit)
	}
	var c *Sequencer
	var f *trapFault // set only by the commit that ends the wave
	// (T, i) is the stop position when the wave exits: every commit
	// ordered before it has been made and, but for a store that moved a
	// member's page and so ends the wave after committing, none at or
	// after it.
	var T uint64
	var i int
	// sbloom is the granule filter over the counter words of the wave's
	// counted-spin skips (invariant 6), the outstanding ones among them.
	var sbloom uint64
wave:
	for {
		// The globally earliest commit: the lowest clock, and on a tie the
		// lowest index (= lowest sequencer ID, mems is in ID order).
		T, i = clocks[0], 0
		for j, cj := range clocks[1:] {
			if cj < T {
				T, i = cj, j+1
			}
		}
		// One cancellation poll per pop: a cancel waits at most one run
		// (waveRunAhead executed micro-ops of one member) before the wave
		// hands back, at the earliest member's next commit, and runRound
		// surfaces it.
		if m.canceled() {
			break
		}
		w := &wave[i]
		lim := w.thr
		if T >= lim {
			break
		}
		pc := w.pc
		off := pc - w.wva
		if off >= mem.PageSize || off&7 != 0 || *w.genp != w.dg {
			// Left the page, or a store (by any member) invalidated it.
			break
		}
		c = mems[i]
		sn := &w.snap
		u := &w.ub[off>>3]
		// This pop ends the member's previous run: every commit ordered
		// before its micro-ops has been made, nothing can take them back
		// or conflict with them any more.
		w.nrun, w.nld, w.cnt.k = 0, 0, 0
		// The run: when the popped micro-op is runAhead's, its first
		// retirement is the ordered commit and the rest are ahead of the
		// order. c.Clock itself is written once, after the run.
		var n, nl int
		var lb uint64
		var paused bool
		nc := T
		if u.class >= isa.ClassLoad {
			sn.regs, sn.fregs, sn.pc, sn.nc, sn.hits = c.Regs, c.FRegs, pc, nc, c.TLB.Hits
			n, pc, nc, nl, lb = runAhead(m, c, w.ub, &sn.loads, w.wva, pc, nc, lim, waveRunAhead)
		}
		if n == 0 {
			// Not runAhead's to retire (or a load it declined): the
			// ordered commit, the only place the wave can fault, then the
			// run. A store is snooped first (invariant 4(e)): if it
			// overlaps a load of any member's latest run, or cannot be
			// placed — it straddles a page, or its page is not
			// write-resident in the member's TLB — the wave stops here, at
			// the store's own pop, and the general turn commits it. The
			// filter speaks for the 8-byte granules a record's eight bytes
			// touch, so a store it passes overlaps none of them.
			if va, size := u.storeVA(&c.Regs); size != 0 {
				spa, one := placed(c, va, size, true)
				sbits := uint64(1)<<(spa>>3&63) | 1<<((spa+size-1)>>3&63)
				for j := range wave {
					p := &wave[j]
					if p.nld == 0 || one && p.lbloom&sbits == 0 {
						continue
					}
					if !one {
						break wave
					}
					for _, lp := range p.snap.loads[:p.nld] {
						if lp+8 > spa && spa+size > lp {
							break wave
						}
					}
				}
			}
			// A load or atomic that may read a peer's counter word while
			// the peer's skip is outstanding stops the wave here too, so
			// that the exit puts the word where the order has it first:
			// one whose bytes may overlap the word, or whose address the
			// member's TLB cannot give without a walk.
			if sbloom != 0 && (u.class == isa.ClassLoad || u.class == isa.ClassAtomic) {
				va := c.Regs[u.rs1]
				if u.class == isa.ClassLoad {
					va += uint64(u.imm)
				}
				lpa, one := placed(c, va, uint64(u.size), false)
				for j := range wave {
					if a := wave[j].cnt.pa; j != i && wave[j].cnt.k != 0 && (!one || lpa+8 > a && a+8 > lpa) {
						break wave
					}
				}
			}
			var stored, ok bool
			if f, stored, ok = m.commitOrdered(c, u); !ok || f != nil {
				break
			}
			w.ret++
			pc += isa.WordSize
			nc = c.Clock + uint64(u.cost)
			if stored {
				// The store may have hit a page a peer has already run
				// ahead in: revalidate every member's page and on a move
				// stop the wave here, just after the store, so the exit
				// takes back what was ordered after it and re-makes the
				// rest from the page as it was compiled.
				for j := range wave {
					if p := &wave[j]; p.genp != nil && *p.genp != p.dg {
						w.pc, c.PC, c.Clock, clocks[i] = pc, pc, nc, nc
						break wave
					}
				}
			}
			// A counted-spin candidate (invariant 6): a std whose member's
			// previous run started just after it and retired a pause.
			std := pc - isa.WordSize
			count := isa.Op(u.op) == isa.OpStd && w.paused && sn.pc == pc && std != w.noCount
			sn.regs, sn.fregs, sn.pc, sn.nc, sn.hits = c.Regs, c.FRegs, pc, nc, c.TLB.Hits
			if !count {
				n, pc, nc, nl, lb = runAhead(m, c, w.ub, &sn.loads, w.wva, pc, nc, lim, waveRunAhead)
			} else {
				// The std's snoop above covered the skipped stds too:
				// they write the same word, and no other member has
				// popped since. Its page is no member's code page, or
				// the std would have stopped the wave.
				var k uint64
				n, pc, nc, nl, lb, paused, k = m.countWalk(c, w.ub, &sn.loads, w.wva, std, nc, lim, waveRunAhead)
				if k == 0 {
					w.noCount = std
				} else if lb&sbloom == 0 || !skipHit(wave, i, sn.loads[:nl]) {
					w.cnt = m.count.rec
					w.cnt.k = k
					dn, dc := m.countSkip(c, &w.cnt, k)
					n, nc = n+int(dn), nc+dc
					sbloom |= 1 << (w.cnt.pa >> 3 & 63)
				}
			}
		}
		if lb&sbloom != 0 && skipHit(wave, i, sn.loads[:nl]) {
			// The run loaded a peer's counter word while the peer's skip
			// is outstanding, and may have read a value the order has not
			// reached: take the run back and stop at this pop, so that
			// the exit puts the word where the order has it first.
			c.Regs, c.FRegs, c.TLB.Hits = sn.regs, sn.fregs, sn.hits
			if m.spin.skipped != 0 {
				m.spinSkips, m.spinInstrs = m.spinSkips-1, m.spinInstrs-uint64(m.spin.skipped)
			}
			w.pc, c.PC, c.Clock, clocks[i] = sn.pc, sn.pc, sn.nc, sn.nc
			break
		}
		w.pc, c.PC, c.Clock, clocks[i] = pc, pc, nc, nc
		w.ret += uint64(n)
		w.nrun, w.skip, w.nld, w.lbloom = uint32(n), m.spin.skipped, uint8(nl), lb
		w.paused = paused || m.spin.pc != ^uint64(0)
	}
	// Take back every run that reaches past the stop position: restore
	// what it started from and run it again up to the position — the
	// leaf's own clock bound stops it exactly there, so what is ordered
	// before is re-made and what is ordered after never ran. A member's
	// snapshot is of its latest run only: an earlier run ended at one of
	// its own pops, which no later stop position precedes. The key of a
	// micro-op is (its clock before, member index) — mems is in ID order.
	// The second call makes its own spin skip by the same rule and counts
	// it, so the first call's is uncounted.
	steps := m.Steps
	for j := range wave {
		s, w := mems[j], &wave[j]
		if lim := T + b2u(j <= i); w.nrun != 0 && clocks[j] > lim {
			sn := &w.snap
			s.Regs, s.FRegs, s.TLB.Hits = sn.regs, sn.fregs, sn.hits
			if w.skip != 0 {
				m.spinSkips, m.spinInstrs = m.spinSkips-1, m.spinInstrs-uint64(w.skip)
			}
			var n int
			var pc, nc uint64
			if w.cnt.k != 0 {
				n, pc, nc = m.countRemake(s, w, lim)
			} else {
				n, pc, nc, _, _ = runAhead(m, s, w.ub, nil, w.wva, sn.pc, sn.nc, lim, int(w.nrun))
			}
			s.PC, s.Clock, clocks[j] = pc, nc, nc
			back := uint64(int(w.nrun) - n)
			w.ret -= back
			m.waveTakenBack += back
		}
		s.C.Instrs += w.ret
		m.Steps += w.ret
	}
	if f != nil {
		// The fault lands at this member's ordered commit point;
		// later-ordered members have not run yet.
		m.dispatchFault(c, f)
	}
	return m.Steps != steps, f != nil
}

// runUops executes compiled micro-ops of the attached page from s.PC
// until the run must hand back: a stop threshold or the batch cap fires,
// control leaves the page, a store invalidates it, or the next slot needs
// the interpreter. Returns the updated retirement count. The caller has
// already validated the fetch window and the page's generation for the
// first slot. A spin loop's repeated iterations retire at once up to
// tstar (invariants 5 and 6), so n may pass max. With a per-retirement
// hook attached (profiler, fault plane) every runAhead call retires one
// micro-op — never two pauses, so never a skip — no counted spin is
// probed, and the hooks run after each.
func (m *Machine) runUops(s *Sequencer, sb *sbPage, n, max int, tstar uint64) (int, sbResult) {
	base := s.winVA
	genp := sb.genPtr
	gen := sb.gen
	prof := m.prof
	flt := m.plan
	// Invariant 6's candidates: the latest std committed, whether a pause
	// retired since, and the std at which the probe last found nothing
	// to skip.
	last, paused, noCount := ^uint64(0), false, ^uint64(0)
	for {
		pc0, c0 := s.PC, s.Clock
		budget := max - n
		if prof != nil || flt != nil {
			budget = 1
		}
		k, pc, nc, _, _ := runAhead(m, s, &sb.uops, nil, base, pc0, c0, tstar, budget)
		paused = paused || m.spin.pc != ^uint64(0)
		exit := false
		if k == 0 {
			u := &sb.uops[(pc0-base)>>3]
			f, stored, ok := m.commitOrdered(s, u)
			if !ok {
				return n, sbStep // the interpreter leg
			}
			if f != nil {
				m.retired(s, pc0, c0, f)
				return n, sbEnd
			}
			k, pc, nc = 1, pc0+isa.WordSize, s.Clock+uint64(u.cost)
			exit = stored && *genp != gen
			if stored && !exit && isa.Op(u.op) == isa.OpStd && prof == nil && flt == nil {
				// A lone runner's stores are all in order, up to tstar:
				// a counted spin skips with no peer to check.
				count := pc0 == last && paused && pc0 != noCount
				last, paused = pc0, false
				if count {
					var dn int
					var ck uint64
					dn, pc, nc, _, _, paused, ck = m.countWalk(s, &sb.uops, nil, base, pc0, nc, tstar, budget-1)
					k += dn
					if ck == 0 {
						noCount = pc0
					} else {
						dk, dc := m.countSkip(s, &m.count.rec, ck)
						k, nc = k+int(dk), nc+dc
					}
				}
			}
		}
		s.PC, s.Clock = pc, nc
		s.C.Instrs += uint64(k)
		m.Steps += uint64(k)
		n += k
		if prof != nil {
			prof.Add(pc0, nc-c0)
		}
		if flt != nil {
			if m.injectRetire(s) {
				return n, sbEnd
			}
			exit = exit || *genp != gen // injected corruption may have hit this page
		}
		// In-page aligned PC: keep running compiled; a cross-page or
		// misaligned target revalidates via fetch.
		if off := pc - base; exit || off >= mem.PageSize || off&7 != 0 || n >= max || nc >= tstar {
			return n, sbAgain
		}
	}
}
