package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"misp/internal/asm"
	"misp/internal/isa"
	"misp/internal/mem"
)

// One opcode, two statements: execInstr (the legacy loop's and the
// interpreter leg's) and, for an opcode the fast path runs inline, exactly
// one of runAhead — the pure opcodes and the loads, as plain TLB hits —
// and commitOrdered — settp, div/rem, stores, the atomics and any load
// runAhead declined. runUops and the cohort wave both execute through
// that pair. These tests hold the pair to execInstr opcode by opcode
// through both executors, and pin which opcodes each half may run at all:
// everything else must reach execInstr through the default arm.

// interpOnly lists the valid opcodes the fast path does not implement:
// privileged and system ops, break ops and the specially retiring context
// ops. Every other valid opcode is inline in both executors.
var interpOnly = map[isa.Op]bool{
	isa.OpHalt: true, isa.OpBrk: true,
	isa.OpSyscall: true, isa.OpIret: true, isa.OpMovtcr: true, isa.OpMovfcr: true,
	isa.OpHlt: true, isa.OpInvlpg: true, isa.OpTlbflush: true,
	isa.OpSignal: true, isa.OpSetyield: true, isa.OpSret: true,
	isa.OpSavectx: true, isa.OpLdctx: true, isa.OpProxyexec: true,
}

// uopAccess pins the two bytes sbClassify compiles into a load, store or
// atomic: the bytes it moves and a sign-extending load's shift.
var uopAccess = map[isa.Op]struct {
	size, sx uint8
	load     bool
}{
	isa.OpLdb: {1, 56, true}, isa.OpLdbu: {1, 0, true}, isa.OpLdh: {2, 48, true}, isa.OpLdhu: {2, 0, true},
	isa.OpLdw: {4, 32, true}, isa.OpLdwu: {4, 0, true}, isa.OpLdd: {8, 0, true}, isa.OpFld: {8, 0, true},
	isa.OpStb: {size: 1}, isa.OpSth: {size: 2}, isa.OpStw: {size: 4}, isa.OpStd: {size: 8}, isa.OpFst: {size: 8},
	isa.OpAxchg: {size: 8}, isa.OpAcas: {size: 8}, isa.OpAadd: {size: 8},
}

// Guest layout of the one-instruction programs: code on the first heap
// page, operands on the next two (both resident, so an access may
// straddle them without faulting).
const (
	uopCode = asm.HeapBase
	uopData = asm.HeapBase + mem.PageSize
)

// uopPattern is the initial memory word at va: distinct per word, the
// sign bit of every byte set.
func uopPattern(va uint64) uint64 { return 0x8192A3B4C5D6E7F8 ^ va&0x7F }

// trapRecorder is BareOS with the fatal-trap arm replaced by a record:
// the first trap that is not a page fault ends the run and is kept with
// the machine's retirement count at its dispatch.
type trapRecorder struct {
	*BareOS
	hit            bool
	trap           isa.Trap
	info, pc, step uint64
}

func (r *trapRecorder) HandleTrap(s *Sequencer, trap isa.Trap, info uint64) {
	if trap == isa.TrapPageFault {
		r.BareOS.HandleTrap(s, trap, info)
		return
	}
	r.hit, r.trap, r.info, r.pc, r.step = true, trap, info, s.PC, r.M.Steps
}

func (r *trapRecorder) Done() bool { return r.hit || r.BareOS.Done() }

// uopMachine builds a machine with code at uopCode, uopPattern around
// the operand addresses, and every sequencer of top running at ring 0
// from the first code word after init set its registers.
func uopMachine(t testing.TB, top Topology, legacy bool, code []isa.Instr, init func(*Sequencer)) (*Machine, *trapRecorder) {
	t.Helper()
	return uopMachineCfg(t, uopConfig(top), legacy, code, init)
}

// uopConfig is uopMachine's configuration: 4 MiB of memory and a cycle
// limit of 2^20.
func uopConfig(top Topology) Config {
	cfg := DefaultConfig(top)
	cfg.PhysMem = 4 << 20
	cfg.MaxCycles = 1 << 20
	return cfg
}

// uopMachineCfg is uopMachine on a configuration of the caller's.
func uopMachineCfg(t testing.TB, cfg Config, legacy bool, code []isa.Instr, init func(*Sequencer)) (*Machine, *trapRecorder) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Oracle = legacy
	b, err := LoadBare(m, asm.MustAssemble("main:\n    li r0, 1\n    syscall\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Space.Prefault(uopCode, 3*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	for i, in := range code {
		if err := b.Space.WriteU64(uopCode+uint64(i)*isa.WordSize, in.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	for _, va := range []uint64{uopData + 56, uopData + 64, uopData + 72, uopData + mem.PageSize - 8, uopData + mem.PageSize} {
		if err := b.Space.WriteU64(va, uopPattern(va)); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range m.Seqs {
		s.PC = uopCode
		s.Ring = isa.Ring0
		s.State = StateRunning
		if init != nil {
			init(s)
		}
	}
	rec := &trapRecorder{BareOS: b}
	m.SetOS(rec)
	return m, rec
}

// uopOutcome is everything a one-instruction program may change.
type uopOutcome struct {
	Seqs []uopSeq
	Mem  []byte // both operand pages
	Trap string // recorded trap, if any
	Err  string
}

type uopSeq struct {
	Regs, FRegs           [isa.NumRegs]uint64 // FRegs as bits: NaN must compare
	PC, TP, Clock, Instrs uint64
	TLBHits, TLBMisses    uint64
}

func uopRun(t *testing.T, top Topology, legacy bool, code []isa.Instr, init func(*Sequencer)) uopOutcome {
	t.Helper()
	m, rec := uopMachine(t, top, legacy, code, init)
	defer m.Release()
	var o uopOutcome
	if err := m.Run(); err != nil {
		o.Err = err.Error()
	}
	if rec.hit {
		o.Trap = fmt.Sprintf("%v info=%#x pc=%#x steps=%d", rec.trap, rec.info, rec.pc, rec.step)
	}
	o.Seqs = uopSeqs(m)
	var err error
	if o.Mem, err = rec.Space.ReadBytes(uopData, 2*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	return o
}

// uopSeqs is every sequencer's architectural state as it stands.
func uopSeqs(m *Machine) []uopSeq {
	var out []uopSeq
	for _, s := range m.Seqs {
		q := uopSeq{Regs: s.Regs, PC: s.PC, TP: s.TP, Clock: s.Clock, Instrs: s.C.Instrs,
			TLBHits: s.TLB.Hits, TLBMisses: s.TLB.Misses}
		for i, f := range s.FRegs {
			q.FRegs[i] = math.Float64bits(f)
		}
		out = append(out, q)
	}
	return out
}

// uopCase is one instruction with the operand registers it reads: r1-r3
// and f1-f3 are preset on every sequencer (rd = 1, rs1 = 2, rs2 = 3
// throughout).
type uopCase struct {
	in isa.Instr
	r  [3]uint64
	f  [3]float64
}

var (
	uopInts = []uint64{0, 1, ^uint64(0), 1 << 63, 63, 64, 65}
	uopImms = []int32{0, 1, -1, math.MinInt32, 63, 64, 65}
	uopFlts = []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5, -2}
	// Operand addresses: aligned, unaligned, and straddling the two
	// resident operand pages.
	uopAddrs = []uint64{uopData + 64, uopData + 61, uopData + mem.PageSize - 3}
)

// uopCases is the operand table for op, by operand format. Jump and
// branch targets are the halt words at slots 2 and 3 of uopProgram.
func uopCases(op isa.Op) []uopCase {
	base := isa.Instr{Op: op, Rd: 1, Rs1: 2, Rs2: 3}
	rdInit := uint64(0x8182838485868788)
	var cs []uopCase
	switch isa.Lookup(op).Fmt {
	case isa.FmtR3, isa.FmtBranch:
		if op == isa.OpAxchg || op == isa.OpAcas || op == isa.OpAadd {
			for _, a := range uopAddrs {
				cs = append(cs,
					uopCase{in: base, r: [3]uint64{rdInit, a, 7}},
					uopCase{in: base, r: [3]uint64{uopPattern(a), a, 7}}) // acas: rd == mem
			}
			break
		}
		base.Imm = 2 * isa.WordSize // the taken target; the ALU ops ignore it
		for _, a := range uopInts {
			for _, b := range uopInts {
				cs = append(cs, uopCase{in: base, r: [3]uint64{rdInit, a, b}})
			}
		}
	case isa.FmtR2I:
		for _, a := range uopInts {
			for _, imm := range uopImms {
				in := base
				in.Imm = imm
				cs = append(cs, uopCase{in: in, r: [3]uint64{rdInit, a}})
			}
		}
	case isa.FmtRI:
		for _, imm := range uopImms {
			in := base
			in.Imm = imm
			cs = append(cs, uopCase{in: in, r: [3]uint64{rdInit}})
		}
	case isa.FmtMem, isa.FmtFMem:
		base.Imm = -16
		for _, a := range uopAddrs {
			cs = append(cs, uopCase{in: base, r: [3]uint64{rdInit, a + 16}, f: [3]float64{-1.25}})
		}
	case isa.FmtF3, isa.FmtFCmp:
		for _, a := range uopFlts {
			for _, b := range uopFlts {
				cs = append(cs, uopCase{in: base, r: [3]uint64{rdInit}, f: [3]float64{9, a, b}})
			}
		}
	case isa.FmtF2, isa.FmtIF:
		for _, a := range append([]float64{1e30, -1e30, 2.75}, uopFlts...) {
			cs = append(cs, uopCase{in: base, r: [3]uint64{rdInit}, f: [3]float64{9, a}})
		}
	case isa.FmtFI:
		for _, a := range append([]uint64{math.Float64bits(math.NaN())}, uopInts...) {
			cs = append(cs, uopCase{in: base, r: [3]uint64{rdInit, a}, f: [3]float64{9}})
		}
	case isa.FmtJmp, isa.FmtJal:
		for _, imm := range []int32{isa.WordSize, 2 * isa.WordSize} {
			in := base
			in.Imm = imm
			cs = append(cs, uopCase{in: in, r: [3]uint64{rdInit}})
		}
	case isa.FmtR1, isa.FmtR2, isa.FmtYield: // r2 is a target, a handler, a frame or a TP
		cs = append(cs, uopCase{in: base, r: [3]uint64{rdInit, uopCode + 3*isa.WordSize}})
		if op == isa.OpProxyexec {
			// Sequencer 1's frame: TestOpTableMatchesOracle posts its
			// proxy request.
			cs = append(cs, uopCase{in: base, r: [3]uint64{rdInit, FrameVA(1)}})
		}
	case isa.FmtSig: // signal: to SID 1, and to an SID no processor has
		for _, sid := range []uint64{1, rdInit} {
			cs = append(cs, uopCase{in: base, r: [3]uint64{sid, uopCode + 3*isa.WordSize, uopData + 64}})
		}
	default: // FmtNone, FmtRd
		cs = append(cs, uopCase{in: base, r: [3]uint64{rdInit}})
	}
	return cs
}

// uopProgram puts in at slot 1. The nop ahead of it takes the one
// interpreter step that follows every fetch-window miss, so on the fast
// loop in itself is the first word the executors see.
func uopProgram(in isa.Instr) []isa.Instr {
	return []isa.Instr{{Op: isa.OpNop}, in, {Op: isa.OpHalt}, {Op: isa.OpHalt}}
}

func (c uopCase) init(s *Sequencer) {
	copy(s.Regs[1:], c.r[:])
	copy(s.FRegs[1:], c.f[:])
	s.TP = 0x7777
}

// TestUopSemanticsMatchOracle holds runUops and the cohort wave to the
// legacy loop opcode by opcode, and pins from outside which opcodes
// runAhead and commitOrdered may each run at all, so neither default arm
// can silently gain or lose one.
func TestUopSemanticsMatchOracle(t *testing.T) {
	if sz := unsafe.Sizeof(sbUop{}); sz != 16 {
		t.Errorf("sizeof(sbUop) = %d, want 16", sz)
	}
	for op := isa.Op(0); isa.Valid(op); op++ {
		u, acc := sbClassify(isa.Instr{Op: op}), uopAccess[op]
		ahead := u.class >= isa.ClassLoad // what the wave starts a run on
		uopProbeRunUops(t, op)
		uopProbeWave(t, op)
		uopProbeLeaf(t, op, ahead)
		// The class byte is what the wave starts a run on; the probes hold
		// it to runAhead's and commitOrdered's own switches. A pure opcode
		// is re-made from the run's snapshot alone: it may touch no memory.
		// A load is not pure: the run also keeps the address a peer's store
		// is checked against. Everything else is commitOrdered's or nobody's.
		pure, f := u.class == isa.ClassPure, isa.Lookup(op).Fmt
		if (u.class == isa.ClassLoad) != acc.load || pure && (interpOnly[op] || f == isa.FmtMem || f == isa.FmtFMem) {
			t.Errorf("%s: load %v compiled class %d, interpreter-only %v, format %d", isa.Name(op), acc.load, u.class, interpOnly[op], f)
		}
		if u.size != acc.size || u.sx != acc.sx {
			t.Errorf("%s compiles to access size %d shift %d, want %d and %d", isa.Name(op), u.size, u.sx, acc.size, acc.sx)
		}
		if interpOnly[op] {
			continue
		}
		// The compile-time facts the default arm relies on.
		info := isa.Lookup(op)
		if info.Cost > math.MaxUint8 || info.Priv || info.Class == isa.ClassEvent {
			t.Errorf("%s is inline but cost %d priv %v class %d", info.Name, info.Cost, info.Priv, info.Class)
		}
		if isa.Op(u.op) != op || uint32(u.cost) != info.Cost {
			t.Errorf("%s compiles to op %d cost %d", info.Name, u.op, u.cost)
		}
		for i, c := range uopCases(op) {
			uopCompare(t, c)
			// What the run's snapshot must cover depends on the opcode,
			// not the operands: a stride keeps the race run short (and,
			// of a load's addresses, picks the aligned one).
			if ahead && i%5 == 0 {
				uopCompareUndo(t, c)
			}
		}
	}
}

// uopCompare runs c on one sequencer, where runUops retires it, and on
// two lockstep sequencers, where the wave does, and compares registers,
// PC, clock, retirement counts, TLB counters, the operand pages and any
// trap with the legacy loop on the same machine shape.
func uopCompare(t *testing.T, c uopCase) {
	t.Helper()
	for _, top := range []Topology{{0}, {1}} {
		want := uopRun(t, top, true, uopProgram(c.in), c.init)
		got := uopRun(t, top, false, uopProgram(c.in), c.init)
		if want.Seqs[0].Instrs == 0 || want.Err != "" {
			t.Fatalf("%v on %v: the oracle did not run: %q %q", c.in, top, want.Trap, want.Err)
		}
		if reflect.DeepEqual(want, got) {
			continue
		}
		t.Errorf("%v with r1-r3 %#x f1-f3 %v on %v: trap %q / %q, error %q / %q, operand pages equal %v (legacy / fast)",
			c.in, c.r, c.f, top, want.Trap, got.Trap, want.Err, got.Err, bytes.Equal(want.Mem, got.Mem))
		for i := range want.Seqs {
			if want.Seqs[i] != got.Seqs[i] {
				t.Errorf("  sequencer %d:\n  legacy %+v\n  fast   %+v", i, want.Seqs[i], got.Seqs[i])
			}
		}
	}
}

// uopCompareUndo runs c where the wave retires it ahead of the commit
// order and must take it back. Sequencer 1's run is the addi that opens
// it, an fadd, c.in, another addi and c.in again; sequencer 0 spins
// through as many one-cycle addis and reaches its syscall tied with that
// second c.in, which the lower ID commits first and which ends the run.
// The legacy loop never executes the second c.in, and executes everything
// before it once: the wave's exit restores the run's snapshot — Regs,
// FRegs, the TLB hit count — and re-makes that prefix, so a restore that
// leaves something out shows as the prefix applied twice (r9 += 3, f4 +=
// f5, a load's TLB hit) or as the second c.in's write left behind. A
// control transfer is left out of the kept prefix (the layout has one
// path). A load only runs ahead as a TLB hit, so sequencer 1 touches the
// operand page first and sequencer 0 starts later by what that costs.
func uopCompareUndo(t *testing.T, c uopCase) {
	t.Helper()
	addi := isa.Instr{Op: isa.OpAddi, Rd: 9, Rs1: 9, Imm: 3}
	fadd := isa.Instr{Op: isa.OpFadd, Rd: 4, Rs1: 4, Rs2: 5}
	ahead := []isa.Instr{{Op: isa.OpNop}}
	var skew uint64
	if uopAccess[c.in.Op].load {
		ahead = append(ahead, isa.Instr{Op: isa.OpLdd, Rd: 10, Rs1: 2, Imm: c.in.Imm})
		skew = uint64(isa.Lookup(isa.OpLdd).Cost) + mem.WalkCost
	}
	ahead = append(ahead, addi, fadd)
	spin := 2 + isa.Lookup(isa.OpFadd).Cost // sequencer 0's addis: one per cycle of the kept prefix
	switch isa.Lookup(c.in.Op).Fmt {
	case isa.FmtJmp, isa.FmtJal, isa.FmtBranch, isa.FmtR1, isa.FmtR2:
	default:
		ahead = append(ahead, c.in)
		spin += isa.Lookup(c.in.Op).Cost
	}
	ahead = append(ahead, addi)
	const oms = 16 // sequencer 1 runs from slot 0, sequencer 0 from here
	code := make([]isa.Instr, oms, oms+2+int(spin))
	copy(code, append(ahead, c.in, isa.Instr{Op: isa.OpHalt}, isa.Instr{Op: isa.OpHalt}))
	code = append(code, isa.Instr{Op: isa.OpNop})
	for ; spin > 0; spin-- {
		code = append(code, addi)
	}
	code = append(code, isa.Instr{Op: isa.OpSyscall})
	init := func(s *Sequencer) {
		c.init(s)
		s.FRegs[4], s.FRegs[5] = 1.5, 2.25
		if s.ID == 0 {
			s.PC, s.Clock = uopCode+oms*isa.WordSize, skew
		}
	}
	want := uopRun(t, Topology{1}, true, code, init)
	got := uopRun(t, Topology{1}, false, code, init)
	if n := uint64(len(ahead)); want.Seqs[1].Instrs != n || want.Seqs[1].PC != uopCode+n*isa.WordSize {
		t.Fatalf("%v: the oracle left sequencer 1 at %+v, want it stopped before slot %d", c.in, want.Seqs[1], n)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%v with r1-r3 %#x f1-f3 %v taken back: trap %q / %q\nlegacy %+v\nfast   %+v",
			c.in, c.r, c.f, want.Trap, got.Trap, want.Seqs[1], got.Seqs[1])
	}
}

// uopProbe builds a fast-loop machine on top with [in, halt] compiled and
// attached to every sequencer's fetch window, operands benign: the state
// in which runBatch calls runUops and runRound calls the wave.
func uopProbe(t testing.TB, top Topology, op isa.Op) *Machine {
	t.Helper()
	in := isa.Instr{Op: op, Rd: 1, Rs1: 2, Rs2: 3, Imm: isa.WordSize}
	c := uopCase{in: in, r: [3]uint64{1, uopData + 64, 1}}
	m, _ := uopMachine(t, top, false, []isa.Instr{in, {Op: isa.OpHalt}}, c.init)
	m.cycLimit, m.pauseLimit = noEvent, noEvent
	for _, s := range m.Seqs {
		if _, f := m.fetchSlow(s); f != nil || s.sb == nil {
			t.Fatalf("attach: fault %+v, page %v", f, s.sb)
		}
	}
	return m
}

// uopProbeRunUops: runUops must retire exactly one instruction of an
// inline opcode and hand any other back unexecuted.
func uopProbeRunUops(t *testing.T, op isa.Op) {
	t.Helper()
	m := uopProbe(t, Topology{0}, op)
	defer m.Release()
	s := m.Seqs[0]
	before := *s
	n, res := m.runUops(s, s.sb, 0, 1, noEvent)
	if interpOnly[op] {
		if n != 0 || res != sbStep || m.Steps != 0 || !reflect.DeepEqual(*s, before) {
			t.Errorf("runUops ran %s itself (n=%d res=%d steps=%d)", isa.Name(op), n, res, m.Steps)
		}
	} else if n != 1 || res == sbStep || s.C.Instrs != 1 {
		t.Errorf("runUops did not run %s inline (n=%d res=%d instrs=%d)", isa.Name(op), n, res, s.C.Instrs)
	}
}

// uopProbeWave: the wave must retire an inline opcode once on each of two
// lockstep members before stopping at their halt, and hand back without
// touching either member on anything else.
func uopProbeWave(t *testing.T, op isa.Op) {
	t.Helper()
	m := uopProbe(t, Topology{1}, op)
	defer m.Release()
	var before []Sequencer
	for i, s := range m.Seqs {
		m.mems[i], m.evts[i], m.clocks[i] = s, noEvent, s.Clock
		before = append(before, *s)
	}
	progress, unclean := m.runCohortWave(len(m.Seqs), noEvent, math.MaxInt)
	for i, s := range m.Seqs {
		if interpOnly[op] {
			if progress || unclean || !reflect.DeepEqual(*s, before[i]) {
				t.Errorf("the wave ran %s itself on %s (progress %v unclean %v)", isa.Name(op), s.Name(), progress, unclean)
			}
		} else if s.C.Instrs != 1 {
			t.Errorf("the wave did not run %s inline on %s (instrs=%d)", isa.Name(op), s.Name(), s.C.Instrs)
		}
	}
}

// uopProbeLeaf pins the split of the inline opcodes: runAhead must retire
// op exactly when it is pure or a load (here a plain hit: the operand page
// is resident) and otherwise stop in front of it with the sequencer
// untouched, and commitOrdered must take exactly the inline opcodes that
// are not pure.
func uopProbeLeaf(t *testing.T, op isa.Op, ahead bool) {
	t.Helper()
	m := uopProbe(t, Topology{0}, op)
	defer m.Release()
	s := m.Seqs[0]
	if _, f := m.loadN(s, uopData+64, 8); f != nil {
		t.Fatalf("touch the operand page: %+v", f)
	}
	before := *s
	var loads [waveRunAhead]uint64
	n, pc, nc, nl, bloom := runAhead(m, s, &s.sb.uops, &loads, s.winVA, s.PC, s.Clock, noEvent, 1)
	hits := s.TLB.Hits - before.TLB.Hits
	switch load := uopAccess[op].load; {
	case !ahead:
		if n != 0 || pc != s.PC || nc != s.Clock || nl != 0 || !reflect.DeepEqual(*s, before) {
			t.Errorf("runAhead ran %s (n=%d)", isa.Name(op), n)
		}
	case n != 1 || nc != s.Clock+uint64(isa.Lookup(op).Cost):
		t.Errorf("runAhead did not run %s (n=%d clock %d)", isa.Name(op), n, nc)
	case load != (nl == 1) || load != (bloom != 0) || load != (loads[0] != 0) || load != (hits == 1):
		t.Errorf("runAhead on %s: %d loads, filter %#x address %#x TLB hits %d", isa.Name(op), nl, bloom, loads[0], hits)
	}
	if _, _, ok := m.commitOrdered(s, &s.sb.uops[0]); ok != (!interpOnly[op] && (!ahead || uopAccess[op].load)) {
		t.Errorf("commitOrdered takes %s: %v", isa.Name(op), ok)
	}
}

// TestRunAheadDeclinesPagingOff: with paging off an address is physical,
// whatever translation of it the TLB still holds from before, so runAhead
// must leave the load to loadN.
func TestRunAheadDeclinesPagingOff(t *testing.T) {
	m := uopProbe(t, Topology{0}, isa.OpLdd)
	defer m.Release()
	s := m.Seqs[0]
	if _, f := m.loadN(s, uopData+64, 8); f != nil {
		t.Fatalf("touch the operand page: %+v", f)
	}
	s.CRs[isa.CR0] &^= isa.CR0Paging
	before := *s
	if n, _, _, _, _ := runAhead(m, s, &s.sb.uops, nil, s.winVA, s.PC, s.Clock, noEvent, 1); n != 0 || !reflect.DeepEqual(*s, before) {
		t.Errorf("runAhead served a load from a stale translation with paging off (n=%d)", n)
	}
}

// TestBadRegisterFieldTraps: isa.Decode masks nothing and only the
// assembler validates register fields, so a word with one >= NumRegs, or
// with an undefined opcode, can reach the core from stored code, a jump
// into data or a memory bit flip. It must raise a bad-instruction trap at
// its PC without retiring, not index past the register file or the
// opcode table, on the legacy loop, in runUops and as a member of a
// lockstep cohort.
func TestBadRegisterFieldTraps(t *testing.T) {
	words := []isa.Instr{
		{Op: isa.OpAdd, Rd: 200},
		{Op: isa.OpAdd, Rs1: isa.NumRegs},
		{Op: isa.OpLdd, Rd: 1, Rs1: 2, Rs2: 255},
		{Op: isa.OpFadd, Rd: 1, Rs1: 16, Rs2: 3},
		{Op: isa.OpSeqid, Rd: 16},
		{Op: isa.Op(isa.NumOps)},
		{Op: 0xff},
	}
	runs := []struct {
		name   string
		top    Topology
		legacy bool
	}{{"legacy", Topology{0}, true}, {"fast", Topology{0}, false}, {"cohort", Topology{1}, false}}
	for _, in := range words {
		for _, r := range runs {
			t.Run(fmt.Sprintf("op%d.%d.%d.%d/%s", in.Op, in.Rd, in.Rs1, in.Rs2, r.name), func(t *testing.T) {
				m, rec := uopMachine(t, r.top, r.legacy, uopProgram(in), nil)
				defer m.Release()
				if err := m.Run(); err != nil {
					t.Fatal(err)
				}
				const badPC = uopCode + isa.WordSize
				if !rec.hit || rec.trap != isa.TrapBadInstr || rec.info != badPC || rec.pc != badPC {
					t.Fatalf("trap %v (recorded: %v) info %#x at pc %#x, want a bad-instruction trap at %#x",
						rec.trap, rec.hit, rec.info, rec.pc, uint64(badPC))
				}
				// Only the nops ahead of the bad word have retired: one per
				// sequencer, the OMS (lowest ID) reaching the word first.
				if nops := uint64(len(m.Seqs)); rec.step != nops || m.Steps != nops || m.Seqs[0].C.Instrs != 1 {
					t.Fatalf("steps %d at the trap, %d after, OMS retired %d; want %d, %d, 1",
						rec.step, m.Steps, m.Seqs[0].C.Instrs, nops, nops)
				}
			})
		}
	}
}

// BenchmarkSbCompile times compiling one code page into micro-ops: what a
// first execution of a page, or the first after a store into it, pays.
func BenchmarkSbCompile(b *testing.B) {
	m := uopProbe(b, Topology{0}, isa.OpAdd)
	defer m.Release()
	p := m.Seqs[0].sb
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.sbCompile(p)
	}
}

var sinkPA uint64

// BenchmarkTranslate times a data translation that hits the TLB and one
// that walks (the entry is dropped before each).
func BenchmarkTranslate(b *testing.B) {
	m := uopProbe(b, Topology{0}, isa.OpLdd)
	defer m.Release()
	s := m.Seqs[0]
	for _, miss := range []bool{false, true} {
		name := "hit"
		if miss {
			name = "miss"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if miss {
					s.TLB.FlushPage(uopData)
				}
				pa, f := m.translate(s, uopData+64, false)
				if f != nil {
					b.Fatalf("%+v", f)
				}
				sinkPA = pa
			}
		})
	}
}
