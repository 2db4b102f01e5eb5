package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"misp/internal/isa"
	"misp/internal/mem"
)

// Generated programs for the cohort wave's memory-order obligation: from
// a seed, 2-8 sequencers (9-24 for a tenth of the seeds: a cohort has no
// capacity) each spin on a loop of their own over a 64-byte
// shared region (which straddles two pages) and a private page, with
// every load width, every store width, the atomics, seqid, rdtsc,
// branches and — on an OMS, which may enter the kernel — a syscall or a
// division by a loaded value. Some spin-wait on an aligned shared word
// with a pause loop until a peer's store changes it, sometimes with a
// clock read or a counter in the loop body, so the fast loop skips the
// spin (superblock.go, invariant 5) and the wave takes skipped spans back
// at the store and at every other exit. Some sequencers also store to a
// page that shares a TLB slot with their private one, so neither stays
// resident and the wave meets stores it cannot place without a walk; and
// in some runs one sequencer overwrites an ALU word of a peer's loop with
// another, so the peer's run-ahead through the old word must be cut at
// the store. The fast loop must leave registers, clocks, retirements, TLB
// counters and memory exactly where the legacy loop does after a fixed
// cycle budget, or at the first fatal trap.

const (
	smShared  = uopData + mem.PageSize - 32  // 64 shared bytes over a page edge
	smPrivate = uopData + 2*mem.PageSize     // one page per sequencer from here
	smAlias   = smPrivate + 256*mem.PageSize // same TLB slots as the private pages
	smSlots   = 64                           // code slots per sequencer
	smCycles  = 2500
)

// smALU is what a code-patching store may replace, and with what.
var smALU = []isa.Op{isa.OpAdd, isa.OpSub, isa.OpXor, isa.OpAnd, isa.OpOr, isa.OpMul, isa.OpSltu, isa.OpShl}

// smOS is BareOS servicing system calls and demand paging; any other
// trap ends the run and is recorded.
type smOS struct{ *trapRecorder }

func (o smOS) HandleTrap(s *Sequencer, trap isa.Trap, info uint64) {
	if trap == isa.TrapSyscall {
		o.BareOS.HandleTrap(s, trap, info)
		return
	}
	o.trapRecorder.HandleTrap(s, trap, info)
}

// smProgram draws one sequencer's loop. Registers: r1 the shared region,
// r2 the private page, r3-r9 data, r10 an atomic's address (always an
// aligned word of the shared region), r13 the page aliasing the private
// one, r15 what a spin-wait's word held on entry, f1-f4 data. With patch
// the loop also stores r12 and, elsewhere, r14 to [r11]: the caller
// points that at a word of a peer's loop and gives the two registers
// different words, so every such store changes it.
func smProgram(rng *rand.Rand, oms, patch bool) []isa.Instr {
	reg := func() uint8 { return uint8(3 + rng.IntN(7)) }
	freg := func() uint8 { return uint8(1 + rng.IntN(4)) }
	pick := func(ops ...isa.Op) isa.Op { return ops[rng.IntN(len(ops))] }
	// addr is a base register and offset: the shared region at any byte
	// (unaligned, across an 8-byte granule, across the page edge) or the
	// private page.
	addr := func(sharedPct int) (uint8, int32) {
		if rng.IntN(100) < sharedPct {
			return 1, int32(rng.IntN(64 - 7))
		}
		return 2, int32(rng.IntN(mem.PageSize - 7))
	}
	n := 8 + rng.IntN(40)
	cold := rng.IntN(3) == 0 // stores to the aliasing page too
	syscallAt, divAt, patchAt, repatchAt, spinAt := -1, -1, -1, -1, -1
	if rng.IntN(3) == 0 {
		spinAt = rng.IntN(n)
	}
	if patch {
		patchAt, repatchAt = rng.IntN(n), rng.IntN(n)
	}
	if oms && rng.IntN(3) == 0 {
		syscallAt = rng.IntN(n)
	}
	if oms && rng.IntN(4) == 0 {
		divAt = rng.IntN(n)
	}
	var code []isa.Instr
	for len(code) < n {
		switch k := rng.IntN(100); {
		case syscallAt >= 0 && len(code) >= syscallAt:
			syscallAt = -1
			code = append(code, isa.Instr{Op: isa.OpLdi, Rd: isa.RRet, Imm: isa.SysClock}, isa.Instr{Op: isa.OpSyscall})
		case divAt >= 0 && len(code) >= divAt:
			divAt = -1
			code = append(code,
				isa.Instr{Op: isa.OpLdbu, Rd: 4, Rs1: 1, Imm: int32(rng.IntN(64))},
				isa.Instr{Op: isa.OpAndi, Rd: 4, Rs1: 4, Imm: 31},
				isa.Instr{Op: pick(isa.OpDiv, isa.OpRem), Rd: reg(), Rs1: reg(), Rs2: 4})
		case spinAt >= 0 && len(code) >= spinAt:
			spinAt = -1
			// Spin while the word still holds what it held on entry.
			off, v := int32(8*rng.IntN(8)), reg()
			code = append(code, isa.Instr{Op: isa.OpLdd, Rd: 15, Rs1: 1, Imm: off})
			top := len(code)
			code = append(code, isa.Instr{Op: isa.OpLdd, Rd: v, Rs1: 1, Imm: off})
			switch rng.IntN(4) {
			case 0:
				code = append(code, isa.Instr{Op: isa.OpRdtsc, Rd: reg()})
			case 1:
				c := reg()
				code = append(code, isa.Instr{Op: isa.OpAddi, Rd: c, Rs1: c, Imm: 1})
			}
			back := -int32(len(code)+2-top) * isa.WordSize
			code = append(code,
				isa.Instr{Op: isa.OpBne, Rs1: v, Rs2: 15, Imm: 3 * isa.WordSize},
				isa.Instr{Op: isa.OpPause},
				isa.Instr{Op: isa.OpJmp, Imm: back})
		case patchAt >= 0 && len(code) >= patchAt:
			patchAt = -1
			code = append(code, isa.Instr{Op: isa.OpStd, Rd: 12, Rs1: 11})
		case repatchAt >= 0 && len(code) >= repatchAt:
			repatchAt = -1
			code = append(code, isa.Instr{Op: isa.OpStd, Rd: 14, Rs1: 11})
		case k < 28:
			code = append(code, isa.Instr{Op: pick(smALU...), Rd: reg(), Rs1: reg(), Rs2: reg()})
		case k < 38:
			op := pick(isa.OpAddi, isa.OpXori, isa.OpShli, isa.OpMuli, isa.OpSlti)
			code = append(code, isa.Instr{Op: op, Rd: reg(), Rs1: reg(), Imm: int32(rng.IntN(64))})
		case k < 44:
			// Forward over the one or two ALU words that follow.
			skip := 1 + rng.IntN(2)
			op := pick(isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBgeu)
			code = append(code, isa.Instr{Op: op, Rs1: reg(), Rs2: reg(), Imm: int32(skip+1) * isa.WordSize})
			for ; skip > 0; skip-- {
				code = append(code, isa.Instr{Op: pick(isa.OpAdd, isa.OpXor, isa.OpSub), Rd: reg(), Rs1: reg(), Rs2: reg()})
			}
		case k < 64:
			b, off := addr(75)
			if op := pick(isa.OpLdb, isa.OpLdbu, isa.OpLdh, isa.OpLdhu, isa.OpLdw, isa.OpLdwu, isa.OpLdd, isa.OpFld); op == isa.OpFld {
				code = append(code, isa.Instr{Op: op, Rd: freg(), Rs1: b, Imm: off})
			} else {
				code = append(code, isa.Instr{Op: op, Rd: reg(), Rs1: b, Imm: off})
			}
		case k < 76:
			b, off := addr(60)
			if cold && b == 2 && rng.IntN(2) == 0 {
				b = 13
			}
			if op := pick(isa.OpStb, isa.OpSth, isa.OpStw, isa.OpStd, isa.OpFst); op == isa.OpFst {
				code = append(code, isa.Instr{Op: op, Rd: freg(), Rs1: b, Imm: off})
			} else {
				code = append(code, isa.Instr{Op: op, Rd: reg(), Rs1: b, Imm: off})
			}
		case k < 82:
			code = append(code,
				isa.Instr{Op: isa.OpAddi, Rd: 10, Rs1: 1, Imm: int32(8 * rng.IntN(8))},
				isa.Instr{Op: pick(isa.OpAxchg, isa.OpAcas, isa.OpAadd), Rd: reg(), Rs1: 10, Rs2: reg()})
		case k < 86:
			code = append(code, isa.Instr{Op: isa.OpSeqid, Rd: reg(), Imm: int32(rng.IntN(4))})
		case k < 90:
			code = append(code, isa.Instr{Op: isa.OpRdtsc, Rd: reg()})
		case k < 96:
			code = append(code, isa.Instr{Op: pick(isa.OpFadd, isa.OpFmul, isa.OpFsub), Rd: freg(), Rs1: freg(), Rs2: freg()})
		default:
			if rng.IntN(2) == 0 {
				code = append(code, isa.Instr{Op: isa.OpItof, Rd: freg(), Rs1: reg()})
			} else {
				code = append(code, isa.Instr{Op: isa.OpFmvi, Rd: freg(), Rs1: reg()})
			}
		}
	}
	return append(code, isa.Instr{Op: isa.OpJmp, Imm: -int32(len(code)) * isa.WordSize})
}

// smOutcome is everything a generated run may leave behind.
type smOutcome struct {
	Seqs      []uopSeq
	Mem       []byte // the shared pages and every private page
	Alias     []byte // every aliasing page
	Code      []byte
	Trap, Err string
}

// smRun runs seed's programs on one loop and returns what they left and
// how many spin skips the run made.
func smRun(t *testing.T, seed uint64, legacy bool) (smOutcome, uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x6d697370))
	n := 2 + rng.IntN(7)
	if seed%10 == 9 {
		n = 9 + rng.IntN(16)
	}
	var top Topology
	switch rng.IntN(3) {
	case 0:
		top = Topology{n - 1} // one MISP processor
	case 1:
		top = make(Topology, n) // n single-sequencer processors
	default:
		top = Topology{(n - 2) / 2, n - 2 - (n-2)/2} // two MISP processors
	}
	code := make([]isa.Instr, max(n, 8)*smSlots) // one code page, three at most (what uopMachine maps)
	data := make([]byte, 2*mem.PageSize+uint64(n)*mem.PageSize)
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	m, rec := uopMachine(t, top, legacy, nil, nil)
	defer m.Release()
	if len(m.Seqs) != n {
		t.Fatalf("seed %d: topology %v has %d sequencers, want %d", seed, top, len(m.Seqs), n)
	}
	patcher := -1
	if rng.IntN(3) == 0 {
		patcher = rng.IntN(n)
	}
	for i, s := range m.Seqs {
		copy(code[i*smSlots:(i+1)*smSlots], smProgram(rng, s.IsOMS, i == patcher))
		s.PC, s.Clock = uopCode+uint64(i*smSlots)*isa.WordSize, uint64(rng.IntN(8))
		for r := range s.Regs {
			s.Regs[r] = rng.Uint64() >> (8 * rng.IntN(8))
			s.FRegs[r] = float64(int64(s.Regs[r])) / 16
		}
		s.Regs[1], s.Regs[2], s.Regs[10] = smShared, smPrivate+uint64(i)*mem.PageSize, smShared
		s.Regs[11], s.Regs[13] = s.Regs[2], smAlias+uint64(i)*mem.PageSize
	}
	if patcher >= 0 {
		// The patcher's stores replace one ALU word of a peer's loop (the
		// first; without one they land on the patcher's private page) with
		// two others in turn.
		p, victim := m.Seqs[patcher], (patcher+1+rng.IntN(n-1))%n
		for k, in := range code[victim*smSlots : (victim+1)*smSlots] {
			if in.Rd >= 3 && slices.Contains(smALU, in.Op) {
				p.Regs[11] = uopCode + uint64(victim*smSlots+k)*isa.WordSize
				for _, r := range []int{12, 14} {
					in.Op, in.Rd = smALU[rng.IntN(len(smALU))], uint8(3+rng.IntN(7))
					p.Regs[r] = in.Encode()
				}
				break
			}
		}
	}
	if _, err := rec.Space.Prefault(uopData, uint64(len(data))); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Space.Prefault(smAlias, uint64(n)*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	for i, in := range code {
		if err := rec.Space.WriteU64(uopCode+uint64(i)*isa.WordSize, in.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Space.WriteBytes(uopData, data); err != nil {
		t.Fatal(err)
	}
	m.SetOS(smOS{rec})
	m.SetPause(smCycles)

	var o smOutcome
	if err := m.Run(); err != nil && !errors.Is(err, ErrPaused) {
		o.Err = err.Error()
	}
	if rec.hit {
		o.Trap = fmt.Sprintf("%v info=%#x pc=%#x steps=%d", rec.trap, rec.info, rec.pc, rec.step)
	}
	o.Seqs = uopSeqs(m)
	read := func(va uint64, n int) []byte {
		b, err := rec.Space.ReadBytes(va, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	o.Mem, o.Alias, o.Code = read(uopData, len(data)), read(smAlias, n*mem.PageSize), read(uopCode, len(code)*isa.WordSize)
	return o, m.spinSkips
}

// smEquiv holds the fast loop to the legacy one on seed and returns the
// fast run's spin skips.
func smEquiv(t *testing.T, seed uint64) uint64 {
	t.Helper()
	want, _ := smRun(t, seed, true)
	got, skips := smRun(t, seed, false)
	if reflect.DeepEqual(want, got) {
		return skips
	}
	t.Errorf("seed %d: trap %q / %q, error %q / %q, memory equal %v (legacy / fast)",
		seed, want.Trap, got.Trap, want.Err, got.Err, reflect.DeepEqual(want.Mem, got.Mem))
	for i := range want.Seqs {
		if want.Seqs[i] != got.Seqs[i] {
			t.Errorf("  sequencer %d:\n  legacy %+v\n  fast   %+v", i, want.Seqs[i], got.Seqs[i])
		}
	}
	return skips
}

func TestWaveSharedMemEquiv(t *testing.T) {
	var skips uint64
	for seed := uint64(0); seed < 200; seed++ {
		skips += smEquiv(t, seed)
	}
	if skips == 0 {
		t.Error("no generated spin-wait was skipped")
	}
}

// FuzzWaveSharedMem is the same comparison on seeds nobody picked (make
// fuzzcheck). The input is only a generator seed, so a large corpus would
// buy nothing: a handful outside the test's range start the search.
func FuzzWaveSharedMem(f *testing.F) {
	for _, seed := range []uint64{200, 1 << 20, 1 << 40, math.MaxUint64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { smEquiv(t, seed) })
}
