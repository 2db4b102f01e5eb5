package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"misp/internal/isa"
	"misp/internal/mem"
)

// Directed tests for the obligations the cohort wave's run-ahead adds
// (superblock.go, invariant 4): retirements ordered after a stop are taken
// back before anything outside the wave can look, a store into a page a
// peer has run ahead in stops the wave at the store, so does a store into
// bytes a peer's run-ahead load has read, and a load that is not a plain
// TLB hit does not run ahead at all. Sequencer 0 leads with a varying
// number of one-cycle instructions so the stop lands at every phase of its
// peers' runs.

const (
	waveLeadMin, waveLeadMax = 3, 40
	// wavePeerSlot is where the peers' loop starts, past the longest lead.
	wavePeerSlot = 128
)

var waveTops = []Topology{{3}, {7}, {0, 0, 0, 0}}

// waveInit starts sequencer 0 at the first code word and every peer at
// peerPC, one cycle apart, with distinct operands.
func waveInit(peerPC uint64) func(*Sequencer) {
	return func(s *Sequencer) {
		s.Clock = uint64(s.ID)
		if s.ID != 0 {
			s.PC = peerPC
		}
		for i := range s.Regs {
			s.Regs[i] = uint64(s.ID*100 + i + 1)
			s.FRegs[i] = float64(s.ID) + float64(i)/8
		}
	}
}

// waveLead is sequencer 0's program: lead addis, then tail.
func waveLead(lead int, tail ...isa.Instr) []isa.Instr {
	var code []isa.Instr
	for i := 0; i < lead; i++ {
		code = append(code, isa.Instr{Op: isa.OpAddi, Rd: 9, Rs1: 9, Imm: 3})
	}
	return append(code, tail...)
}

// firstTrap is BareOS stopped at the first trap of any kind, with every
// sequencer's state as the trap handler — the kernel, in a full system —
// would read it.
type firstTrap struct {
	*BareOS
	seqs []uopSeq
	what string
}

func (o *firstTrap) HandleTrap(s *Sequencer, trap isa.Trap, info uint64) {
	if o.seqs == nil {
		o.seqs = uopSeqs(o.M)
		o.what = fmt.Sprintf("%v info=%#x on %s steps=%d", trap, info, s.Name(), o.M.Steps)
	}
}

func (o *firstTrap) Done() bool { return o.seqs != nil }

// TestWaveRollsBackPeersAtTrap: when sequencer 0 traps, its peers — on a
// pure loop of mixed costs, so each sits somewhere inside a run-ahead —
// must be exactly where the legacy loop has them: no retirement ordered
// after the trap may be visible to the handler.
func TestWaveRollsBackPeersAtTrap(t *testing.T) {
	const loop = wavePeerSlot * isa.WordSize
	peers := []isa.Instr{
		{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 2},
		{Op: isa.OpMul, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: isa.OpFadd, Rd: 1, Rs1: 1, Rs2: 2},
		{Op: isa.OpXori, Rd: 4, Rs1: 1, Imm: 0x55},
		{Op: isa.OpRdtsc, Rd: 6},
		{Op: isa.OpFmov, Rd: 3, Rs1: 1},
		{Op: isa.OpJal, Rd: 5, Imm: isa.WordSize},
		{Op: isa.OpSub, Rd: 7, Rs1: 6, Rs2: 1},
		{Op: isa.OpJmp, Imm: -8 * isa.WordSize},
	}
	traps := []struct {
		name string
		in   isa.Instr
	}{
		{"syscall", isa.Instr{Op: isa.OpSyscall}},
		{"divzero", isa.Instr{Op: isa.OpDiv, Rd: 1, Rs1: 2, Rs2: 15}},                   // r15 = 0
		{"pagefault", isa.Instr{Op: isa.OpLdd, Rd: 1, Rs1: 14, Imm: 64 * mem.PageSize}}, // r14 = uopCode
	}
	run := func(top Topology, legacy bool, code []isa.Instr) ([]uopSeq, string) {
		init := waveInit(uopCode + loop)
		m, rec := uopMachine(t, top, legacy, code, func(s *Sequencer) {
			init(s)
			s.Regs[14], s.Regs[15] = uopCode, 0
		})
		defer m.Release()
		o := &firstTrap{BareOS: rec.BareOS}
		m.SetOS(o)
		if err := m.Run(); err != nil || o.seqs == nil {
			t.Fatalf("%v legacy=%v: no trap reached: %v", top, legacy, err)
		}
		return o.seqs, o.what
	}
	for _, top := range waveTops {
		for _, tr := range traps {
			for lead := waveLeadMin; lead < waveLeadMax; lead++ {
				code := make([]isa.Instr, wavePeerSlot, wavePeerSlot+len(peers))
				copy(code, waveLead(lead, tr.in, isa.Instr{Op: isa.OpHalt}))
				code = append(code, peers...)
				want, wantTrap := run(top, true, code)
				got, gotTrap := run(top, false, code)
				if wantTrap != gotTrap {
					t.Fatalf("%v %s lead %d: trap %q (legacy) != %q (fast)", top, tr.name, lead, wantTrap, gotTrap)
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("%v %s lead %d: sequencer %d at the trap:\nlegacy %+v\nfast   %+v", top, tr.name, lead, i, want[i], got[i])
					}
				}
			}
		}
	}
}

// TestWaveStoreIntoPeerRunAhead: sequencer 0 rewrites the first word of
// the loop its peers are spinning in (addi r4, r4, 1 becomes +100) from
// another page. A peer that had already run ahead through the old word
// past the store's position must have that taken back and re-execute the
// new one, as the legacy loop — which fetches every word from memory —
// does.
func TestWaveStoreIntoPeerRunAhead(t *testing.T) {
	// The peers' loop sits on the page after sequencer 0's code, so only
	// the post-store revalidation of every member's page can notice.
	const loop = mem.PageSize + wavePeerSlot*isa.WordSize
	addi := isa.Instr{Op: isa.OpAddi, Rd: 4, Rs1: 4, Imm: 1}
	peers := []isa.Instr{
		addi,
		{Op: isa.OpXori, Rd: 5, Rs1: 4, Imm: 0x55},
		{Op: isa.OpJmp, Imm: -2 * isa.WordSize},
	}
	patched := addi
	patched.Imm = 100
	run := func(top Topology, legacy bool, lead int) []uopSeq {
		code := make([]isa.Instr, loop/isa.WordSize, loop/isa.WordSize+len(peers))
		copy(code, waveLead(lead,
			isa.Instr{Op: isa.OpStd, Rd: 13, Rs1: 14}, // [r14] <- r13
			isa.Instr{Op: isa.OpAddi, Rd: 9, Rs1: 9, Imm: 3},
			isa.Instr{Op: isa.OpJmp, Imm: -isa.WordSize}))
		code = append(code, peers...)
		init := waveInit(uopCode + loop)
		m, _ := uopMachine(t, top, legacy, code, func(s *Sequencer) {
			init(s)
			s.Regs[13], s.Regs[14] = patched.Encode(), uopCode+loop
		})
		defer m.Release()
		m.SetPause(uint64(lead) + 60)
		if err := m.Run(); !errors.Is(err, ErrPaused) {
			t.Fatalf("%v legacy=%v lead %d: %v, want ErrPaused", top, legacy, lead, err)
		}
		return uopSeqs(m)
	}
	for _, top := range waveTops {
		for lead := waveLeadMin; lead < waveLeadMax; lead++ {
			want, got := run(top, true, lead), run(top, false, lead)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%v lead %d: sequencer %d 60 cycles after the store:\nlegacy %+v\nfast   %+v", top, lead, i, want[i], got[i])
				}
			}
		}
	}
}

// wavePausedRun runs code on top until the pause and returns every
// sequencer's state with both operand pages.
func wavePausedRun(t *testing.T, top Topology, legacy bool, code []isa.Instr, init func(*Sequencer), pause uint64) ([]uopSeq, []byte) {
	t.Helper()
	m, rec := uopMachine(t, top, legacy, code, init)
	defer m.Release()
	m.SetPause(pause)
	if err := m.Run(); !errors.Is(err, ErrPaused) {
		t.Fatalf("%v legacy=%v: %v, want ErrPaused", top, legacy, err)
	}
	data, err := rec.Space.ReadBytes(uopData, 2*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	return uopSeqs(m), data
}

// waveShared is the word the store tests contend on: the first of the
// second operand page.
const waveShared = uopData + mem.PageSize

// waveStore is one shape of sequencer 0's store under test. Its program
// stores to warm first: a word on waveShared's page, so that page is
// write-resident in its TLB and the wave can place the store under test
// without a walk, or on the other operand page, so it cannot.
type waveStore struct {
	name string
	in   isa.Instr // [r14] <- r13, or an atomic with r13
	at   uint64    // r14
	warm uint64
}

const (
	waveWarm = waveShared + 512
	waveCold = uopData + 512
)

// waveStoreEquiv runs sequencer 0 — the warming store, lead addis, the
// store under test, then a spin — against peers on their loop (r1 =
// waveShared) for every store and lead, and holds the fast loop to the
// legacy one on every sequencer's state and both operand pages 60 cycles
// after the store.
func waveStoreEquiv(t *testing.T, peers []isa.Instr, stores []waveStore, leadMin, leadMax, step int) {
	t.Helper()
	for _, top := range waveTops {
		for _, st := range stores {
			for lead := leadMin; lead < leadMax; lead += step {
				code := make([]isa.Instr, wavePeerSlot, wavePeerSlot+len(peers))
				copy(code, append([]isa.Instr{{Op: isa.OpStd, Rd: 13, Rs1: 11}}, waveLead(lead, st.in,
					isa.Instr{Op: isa.OpAddi, Rd: 9, Rs1: 9, Imm: 3},
					isa.Instr{Op: isa.OpJmp, Imm: -isa.WordSize})...))
				code = append(code, peers...)
				base := waveInit(uopCode + wavePeerSlot*isa.WordSize)
				init := func(s *Sequencer) {
					base(s)
					s.Regs[1], s.Regs[11], s.Regs[13], s.Regs[14] = waveShared, st.warm, 0x0123456789ABCDEF, st.at
				}
				// The warming store costs a walk: the store under test
				// commits at clock lead+26.
				pause := uint64(lead) + 26 + 60
				want, wantMem := wavePausedRun(t, top, true, code, init, pause)
				got, gotMem := wavePausedRun(t, top, false, code, init, pause)
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("%v %s lead %d: sequencer %d 60 cycles after the store:\nlegacy %+v\nfast   %+v", top, st.name, lead, i, want[i], got[i])
					}
				}
				if !bytes.Equal(wantMem, gotMem) {
					t.Fatalf("%v %s lead %d: the operand pages differ", top, st.name, lead)
				}
			}
		}
	}
}

// TestWaveLoadRunAheadSeesPeerStore: the peers spin loading one shared
// word — TLB hits, so the loads run ahead of the commit order — and
// sequencer 0 stores into it. A peer whose load was ordered after the
// store but had already read the old bytes must have that run taken back,
// whatever the shape of the overlap: the whole word, one byte in its
// middle, an atomic on it, a store the wave cannot place because its page
// is not write-resident in sequencer 0's TLB, and one that straddles into
// the word from the page before (whose bytes are not one physical range).
func TestWaveLoadRunAheadSeesPeerStore(t *testing.T) {
	peers := []isa.Instr{
		{Op: isa.OpLdd, Rd: 4, Rs1: 1},
		{Op: isa.OpAdd, Rd: 5, Rs1: 5, Rs2: 4},
		{Op: isa.OpXori, Rd: 6, Rs1: 5, Imm: 0x55},
		{Op: isa.OpJmp, Imm: -3 * isa.WordSize},
	}
	waveStoreEquiv(t, peers, []waveStore{
		{"std", isa.Instr{Op: isa.OpStd, Rd: 13, Rs1: 14}, waveShared, waveWarm},
		{"stb-inside", isa.Instr{Op: isa.OpStb, Rd: 13, Rs1: 14}, waveShared + 3, waveWarm},
		{"aadd", isa.Instr{Op: isa.OpAadd, Rd: 12, Rs1: 14, Rs2: 13}, waveShared, waveWarm},
		{"std-cold-page", isa.Instr{Op: isa.OpStd, Rd: 13, Rs1: 14}, waveShared, waveCold},
		{"std-straddling", isa.Instr{Op: isa.OpStd, Rd: 13, Rs1: 14}, waveShared - 4, waveWarm},
	}, waveLeadMin, waveLeadMax, 1)
}

// TestWaveKeptLoadKeepsOldBytes: each peer loads the shared word once —
// a TLB hit inside the run its first, missing load opens — and then spins
// on what it read, so when sequencer 0's store to that word pops, every
// peer's run holds a load ordered before the store and micro-ops ordered
// after it. The wave's exit re-runs the part of a run it keeps, and the
// kept load must read the bytes it read: the store may not have been
// committed when the exit runs. The failing acas stores nothing but leaves
// the wave all the same.
func TestWaveKeptLoadKeepsOldBytes(t *testing.T) {
	peers := []isa.Instr{
		{Op: isa.OpLdd, Rd: 6, Rs1: 1, Imm: 64}, // misses: the ordered commit that opens the run
		{Op: isa.OpLdd, Rd: 4, Rs1: 1},          // hits: in the run
		{Op: isa.OpAdd, Rd: 5, Rs1: 5, Rs2: 4},
		{Op: isa.OpXori, Rd: 6, Rs1: 5, Imm: 0x55},
		{Op: isa.OpMul, Rd: 7, Rs1: 6, Rs2: 4},
		{Op: isa.OpJmp, Imm: -3 * isa.WordSize},
	}
	// Peer j's load of the shared word commits at clock j+26 (its first
	// load pays the walk) and its run reaches clock 100 or so; sequencer
	// 0's store pops at clock lead+26, between the two.
	waveStoreEquiv(t, peers, []waveStore{
		{"std", isa.Instr{Op: isa.OpStd, Rd: 13, Rs1: 14}, waveShared, waveWarm},
		{"stb-inside", isa.Instr{Op: isa.OpStb, Rd: 13, Rs1: 14}, waveShared + 3, waveWarm},
		{"aadd", isa.Instr{Op: isa.OpAadd, Rd: 12, Rs1: 14, Rs2: 13}, waveShared, waveWarm},
		{"acas-failing", isa.Instr{Op: isa.OpAcas, Rd: 12, Rs1: 14, Rs2: 13}, waveShared, waveWarm}, // r12 != [r14]
		{"std-cold-page", isa.Instr{Op: isa.OpStd, Rd: 13, Rs1: 14}, waveShared, waveCold},
	}, 10, 60, 3)
}

// TestWaveLoadDeclines: a load that is not a plain TLB hit stays at its
// ordered commit. The peers alternate between two resident pages that
// share a TLB slot (every load misses and pays the walk), load across the
// boundary of two pages already in their TLBs (two hits, not one), or
// load from an unmapped page (the fault must carry the address and land
// in order), while sequencer 0 traps a few cycles either
// side, so the undo path crosses the declined load at every phase. At the
// first trap every sequencer's registers, clock, retirements and TLB hits
// and misses must be the legacy loop's.
func TestWaveLoadDeclines(t *testing.T) {
	const (
		loop  = wavePeerSlot * isa.WordSize
		alias = uopData + 256*mem.PageSize // same direct-mapped TLB slot as uopData
	)
	peers := []isa.Instr{
		{Op: isa.OpAddi, Rd: 7, Rs1: 7, Imm: 1},
		{Op: isa.OpLdd, Rd: 4, Rs1: 1},
		{Op: isa.OpAdd, Rd: 5, Rs1: 5, Rs2: 4},
		{Op: isa.OpLdw, Rd: 4, Rs1: 2},
		{Op: isa.OpXor, Rd: 6, Rs1: 5, Rs2: 4},
		{Op: isa.OpJmp, Imm: -5 * isa.WordSize},
	}
	loads := []struct {
		name   string
		r1, r2 uint64
		warm   bool // touch both operand pages on every sequencer first
	}{
		{"tlb-miss", uopData + 64, alias + 64, false},
		{"straddle", uopData + mem.PageSize - 3, uopData + mem.PageSize - 2, true},
		{"fault", uopData + 64, uopCode + 64*mem.PageSize, false},
	}
	run := func(top Topology, legacy bool, code []isa.Instr, r1, r2 uint64, warm bool) ([]uopSeq, string) {
		base := waveInit(uopCode + loop)
		m, rec := uopMachine(t, top, legacy, code, func(s *Sequencer) {
			base(s)
			s.Regs[1], s.Regs[2] = r1, r2
		})
		defer m.Release()
		if _, err := rec.Space.Prefault(alias, mem.PageSize); err != nil {
			t.Fatal(err)
		}
		for _, s := range m.Seqs {
			for va := uint64(uopData); warm && va < uopData+2*mem.PageSize; va += mem.PageSize {
				if _, f := m.loadN(s, va, 1); f != nil {
					t.Fatalf("touch %#x: %+v", va, f)
				}
			}
		}
		o := &firstTrap{BareOS: rec.BareOS}
		m.SetOS(o)
		if err := m.Run(); err != nil || o.seqs == nil {
			t.Fatalf("%v legacy=%v: no trap reached: %v", top, legacy, err)
		}
		return o.seqs, o.what
	}
	for _, top := range waveTops {
		for _, ld := range loads {
			for lead := waveLeadMin; lead < waveLeadMax; lead++ {
				code := make([]isa.Instr, wavePeerSlot, wavePeerSlot+len(peers))
				copy(code, waveLead(lead, isa.Instr{Op: isa.OpSyscall}, isa.Instr{Op: isa.OpHalt}))
				code = append(code, peers...)
				want, wantTrap := run(top, true, code, ld.r1, ld.r2, ld.warm)
				got, gotTrap := run(top, false, code, ld.r1, ld.r2, ld.warm)
				if wantTrap != gotTrap {
					t.Fatalf("%v %s lead %d: trap %q (legacy) != %q (fast)", top, ld.name, lead, wantTrap, gotTrap)
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("%v %s lead %d: sequencer %d at the trap:\nlegacy %+v\nfast   %+v", top, ld.name, lead, i, want[i], got[i])
					}
				}
			}
		}
	}
}
