package core

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"misp/internal/isa"
	"misp/internal/mem"
)

// opEffect is what one execInstr call did, as seen from outside: the
// sequencer before and after, the code page and both operand pages
// before and after, and whether it trapped.
type opEffect struct {
	s0, s1        Sequencer
	mem0, mem1    []byte // from uopCode, three pages
	trap          bool
	event, beyond bool
}

// oracleEffect executes c.in once with execInstr on the OMS of a
// one-AMS oracle machine at ring, from slot 1 of uopProgram. event
// reports a change to the AMS, to the machine's halt or stop state, or to
// the OMS's run state, yield table, handler flag or control registers;
// beyond, a change no inline opcode makes: a register other than rd, the
// ring, or more than eight bytes of memory.
func oracleEffect(t *testing.T, c uopCase, ring isa.Ring) opEffect {
	t.Helper()
	m, rec := uopMachine(t, Topology{1}, true, uopProgram(c.in), c.init)
	defer m.Release()
	if c.in.Op == isa.OpProxyexec && c.r[1] == FrameVA(1) {
		// Post the AMS's proxy request as the firmware does, its frame
		// continuing at the program's first word, a nop.
		if err := rec.Space.WriteU64(FrameVA(1)+isa.CtxPC, uopCode); err != nil {
			t.Fatal(err)
		}
		m.Seqs[1].State, m.Seqs[1].proxyFrame = StateWaitProxy, FrameVA(1)
	}
	s, peer := m.Seqs[0], *m.Seqs[1]
	s.PC, s.Ring = uopCode+isa.WordSize, ring
	e := opEffect{s0: *s}
	read := func() []byte {
		b, err := rec.Space.ReadBytes(uopCode, 3*mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	e.mem0 = read()
	e.trap = m.execInstr(s, c.in) != nil
	e.mem1, e.s1 = read(), *s
	// The AMS's float registers compare by their bits: a NaN operand is
	// never DeepEqual to itself.
	now := *m.Seqs[1]
	peerSame := sameBits(&now.FRegs, &peer.FRegs)
	now.FRegs, peer.FRegs = [isa.NumRegs]float64{}, [isa.NumRegs]float64{}
	e.event = m.halted || m.stopErr != nil || !peerSame || !reflect.DeepEqual(now, peer) ||
		s.State != e.s0.State || s.Yield != e.s0.Yield || s.InHandler != e.s0.InHandler || s.CRs != e.s0.CRs
	changed := 0
	for i := range e.mem0 {
		if e.mem0[i] != e.mem1[i] {
			changed++
		}
	}
	e.beyond = changed > 8 || s.Ring != e.s0.Ring
	for i := range s.Regs {
		if i != int(c.in.Rd) && (s.Regs[i] != e.s0.Regs[i] || math.Float64bits(s.FRegs[i]) != math.Float64bits(e.s0.FRegs[i])) {
			e.beyond = true
		}
	}
	return e
}

// memOff is the offset of va in opEffect's pages, or -1 when the n bytes
// at va are not all in them.
func memOff(va uint64, n uint8) int {
	if va < uopCode || va+uint64(n) > uopCode+3*mem.PageSize {
		return -1
	}
	return int(va - uopCode)
}

// leBytes is the value of the little-endian bytes b, zero-extended.
func leBytes(b []byte) uint64 {
	var w [8]byte
	copy(w[:], b)
	return binary.LittleEndian.Uint64(w[:])
}

// TestOpTableMatchesOracle holds every opcode's row of the isa.Info
// table — its class, access size and sign extension, which the fast path
// compiles from and execInstr never reads — to what execInstr does with
// the opcode over uopCases' operands, one instruction at a time on the
// oracle at ring 0 (and the first case at ring 3 too, where a privileged
// opcode traps). Each class is held to what it forbids in every case and
// to what shows it is that class in some case:
//
//   - pure: never traps, even at ring 3; memory, TP and the TLB counters
//     unchanged (it reads no memory);
//   - load: memory and TP unchanged, rd is exactly Size little-endian
//     bytes at rs1+imm, sign-extended when the row says so (uopPattern
//     sets every byte's sign bit, so both show);
//   - store: every byte that changes lies in [va, va+Size), va = rs1+imm,
//     and those bytes are rd's low Size bytes; TP unchanged; some case
//     writes memory;
//   - atomic: every byte that changes lies in [rs1, rs1+Size), and rd is
//     the Size bytes there before; TP unchanged;
//   - ordered: memory and the TLB counters unchanged; some case traps or
//     writes TP;
//   - interp: some case does what no inline class does, or every case
//     traps, or the opcode is privileged;
//   - event: some case makes an event;
//
// and an opcode any case of which makes an event is class event, and one
// of an inline class completes in some case.
func TestOpTableMatchesOracle(t *testing.T) {
	for op := isa.Op(0); isa.Valid(op); op++ {
		info := isa.Lookup(op)
		fail := func(c uopCase, format string, args ...any) {
			t.Helper()
			t.Errorf("%s (class %d, size %d, signed %v) with r1-r3 %#x: "+format,
				append([]any{info.Name, info.Class, info.Size, info.Signed, c.r}, args...)...)
		}
		cases := uopCases(op)
		everyTrap, someEvent, someBeyond, someStore, someOrdered := true, false, false, false, false
		priv := false // the first case traps at ring 3 and not at ring 0
		for i, c := range cases {
			e := oracleEffect(t, c, isa.Ring0)
			if i == 0 {
				priv = !e.trap && oracleEffect(t, c, isa.Ring3).trap
			}
			everyTrap = everyTrap && e.trap
			someEvent = someEvent || e.event
			someBeyond = someBeyond || e.beyond
			memSame := reflect.DeepEqual(e.mem0, e.mem1)
			tpSame, tlbSame := e.s0.TP == e.s1.TP, tlbStats(&e.s0) == tlbStats(&e.s1)
			someStore = someStore || !memSame
			someOrdered = someOrdered || e.trap || !tpSame
			if e.event && info.Class != isa.ClassEvent {
				fail(c, "makes an event")
			}
			if info.Class.Inline() && e.beyond {
				fail(c, "changes more than an inline opcode may")
			}
			// The register an access reads or writes: a float one for the
			// FP formats.
			reg := func(s *Sequencer) uint64 {
				if info.Fmt == isa.FmtFMem {
					return math.Float64bits(s.FRegs[c.in.Rd])
				}
				return s.Regs[c.in.Rd]
			}
			va := e.s0.Regs[c.in.Rs1] + uint64(int64(c.in.Imm))
			if info.Class == isa.ClassAtomic {
				va = e.s0.Regs[c.in.Rs1]
			}
			off := memOff(va, info.Size)
			switch info.Class {
			case isa.ClassPure:
				if e.trap || !memSame || !tpSame || !tlbSame {
					fail(c, "trap %v, memory, TP and TLB counters unchanged %v %v %v", e.trap, memSame, tpSame, tlbSame)
				}
			case isa.ClassLoad:
				if e.trap {
					break
				}
				var want uint64
				if off >= 0 {
					want = leBytes(e.mem0[off : off+int(info.Size)])
					if sh := 64 - 8*info.Size; info.Signed {
						want = uint64(int64(want<<sh) >> sh)
					}
				}
				if got := reg(&e.s1); off < 0 || got != want || !memSame || !tpSame {
					fail(c, "loaded %#x from %#x, want %#x; memory and TP unchanged %v %v", got, va, want, memSame, tpSame)
				}
			case isa.ClassStore, isa.ClassAtomic:
				if e.trap {
					break
				}
				ok := off >= 0 && tpSame
				for i := range e.mem0 {
					if e.mem0[i] != e.mem1[i] && (i < off || i >= off+int(info.Size)) {
						ok = false
					}
				}
				if ok && info.Class == isa.ClassStore {
					ok = leBytes(e.mem1[off:off+int(info.Size)]) == reg(&e.s0)&(math.MaxUint64>>(64-8*info.Size))
				} else if ok {
					ok = e.s1.Regs[c.in.Rd] == leBytes(e.mem0[off:off+int(info.Size)])
				}
				if !ok {
					fail(c, "does not move exactly its %d bytes at %#x (TP unchanged %v)", info.Size, va, tpSame)
				}
			case isa.ClassOrdered:
				if !memSame || !tlbSame {
					fail(c, "touched memory")
				}
			}
		}
		switch {
		case info.Class == isa.ClassPure && priv:
			t.Errorf("%s: pure, but traps at ring 3", info.Name)
		case info.Class == isa.ClassStore && !someStore:
			t.Errorf("%s: a store that wrote nothing", info.Name)
		case info.Class == isa.ClassOrdered && !someOrdered:
			t.Errorf("%s: ordered, but never trapped or wrote TP", info.Name)
		case info.Class == isa.ClassInterp && !someBeyond && !everyTrap && !priv:
			t.Errorf("%s: interpreter-only, but did only what an inline opcode may", info.Name)
		case info.Class == isa.ClassEvent && !someEvent:
			t.Errorf("%s: an event op that made no event", info.Name)
		case info.Class.Inline() && everyTrap:
			t.Errorf("%s: inline, but trapped in every case", info.Name)
		}
	}
}
