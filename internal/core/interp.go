package core

import (
	"math"

	"misp/internal/isa"
)

// exec executes one instruction on s and runs its retirement hooks.
func (m *Machine) exec(s *Sequencer) {
	pc, c0 := s.PC, s.Clock
	m.retired(s, pc, c0, m.execOne(s))
}

// retired runs the per-retirement hooks for the instruction at pc, begun
// at clock c0, that just retired or raised f. With profiling on, its
// clock delta — opcode cost plus TLB walks, context spills, and (for
// PROXYEXEC) the whole re-execution — is attributed to pc. Then f is
// dispatched to the kernel (OMS) or the proxy machinery (AMS), or, with
// no fault, the fault plane probes for an injection. It reports whether
// either happened: the caller's run must end, as after a break op.
func (m *Machine) retired(s *Sequencer, pc, c0 uint64, f *trapFault) bool {
	if m.prof != nil {
		m.prof.Add(pc, s.Clock-c0)
	}
	if f != nil {
		m.dispatchFault(s, f)
		return true
	}
	return m.plan != nil && m.injectRetire(s)
}

// execOne fetches, decodes and executes a single instruction. On a
// fault it returns without committing: s.PC still addresses the
// faulting instruction. Traps are NOT handled here. The legacy loop
// decodes afresh each instruction, exactly as the seed interpreter did.
func (m *Machine) execOne(s *Sequencer) *trapFault {
	in, f := m.fetchUncached(s)
	if f != nil {
		return f
	}
	return m.execInstr(s, in)
}

// execInstr executes the already-fetched instruction at s.PC. The batch
// loop fetches once to inspect the opcode and passes it here.
func (m *Machine) execInstr(s *Sequencer, in isa.Instr) *trapFault {
	if malformed(in) {
		return &trapFault{trap: isa.TrapBadInstr, info: s.PC}
	}
	info := isa.Lookup(in.Op)
	if info.Priv && s.Ring != isa.Ring0 {
		return &trapFault{trap: isa.TrapGP, info: s.PC}
	}

	r := &s.Regs
	fr := &s.FRegs
	imm := int64(in.Imm)
	nextPC := s.PC + isa.WordSize

	switch in.Op {
	case isa.OpNop, isa.OpPause, isa.OpFence:
		// cost only
	case isa.OpHalt:
		m.halted = true
	case isa.OpBrk:
		return &trapFault{trap: isa.TrapBreak, info: s.PC}
	case isa.OpRdtsc:
		r[in.Rd] = s.Clock
	case isa.OpSeqid:
		r[in.Rd] = m.seqid(s, imm)

	// Integer ALU.
	case isa.OpAdd:
		r[in.Rd] = r[in.Rs1] + r[in.Rs2]
	case isa.OpSub:
		r[in.Rd] = r[in.Rs1] - r[in.Rs2]
	case isa.OpMul:
		r[in.Rd] = r[in.Rs1] * r[in.Rs2]
	case isa.OpDiv:
		d := int64(r[in.Rs2])
		if d == 0 {
			return &trapFault{trap: isa.TrapDivZero, info: s.PC}
		}
		n := int64(r[in.Rs1])
		if n == math.MinInt64 && d == -1 {
			r[in.Rd] = uint64(n) // overflow wraps, no trap
		} else {
			r[in.Rd] = uint64(n / d)
		}
	case isa.OpRem:
		d := int64(r[in.Rs2])
		if d == 0 {
			return &trapFault{trap: isa.TrapDivZero, info: s.PC}
		}
		n := int64(r[in.Rs1])
		if n == math.MinInt64 && d == -1 {
			r[in.Rd] = 0
		} else {
			r[in.Rd] = uint64(n % d)
		}
	case isa.OpAnd:
		r[in.Rd] = r[in.Rs1] & r[in.Rs2]
	case isa.OpOr:
		r[in.Rd] = r[in.Rs1] | r[in.Rs2]
	case isa.OpXor:
		r[in.Rd] = r[in.Rs1] ^ r[in.Rs2]
	case isa.OpShl:
		r[in.Rd] = r[in.Rs1] << (r[in.Rs2] & 63)
	case isa.OpShr:
		r[in.Rd] = r[in.Rs1] >> (r[in.Rs2] & 63)
	case isa.OpSar:
		r[in.Rd] = uint64(int64(r[in.Rs1]) >> (r[in.Rs2] & 63))
	case isa.OpSlt:
		r[in.Rd] = b2u(int64(r[in.Rs1]) < int64(r[in.Rs2]))
	case isa.OpSltu:
		r[in.Rd] = b2u(r[in.Rs1] < r[in.Rs2])

	case isa.OpAddi:
		r[in.Rd] = r[in.Rs1] + uint64(imm)
	case isa.OpMuli:
		r[in.Rd] = r[in.Rs1] * uint64(imm)
	case isa.OpAndi:
		r[in.Rd] = r[in.Rs1] & uint64(imm)
	case isa.OpOri:
		r[in.Rd] = r[in.Rs1] | uint64(imm)
	case isa.OpXori:
		r[in.Rd] = r[in.Rs1] ^ uint64(imm)
	case isa.OpShli:
		r[in.Rd] = r[in.Rs1] << (uint64(imm) & 63)
	case isa.OpShri:
		r[in.Rd] = r[in.Rs1] >> (uint64(imm) & 63)
	case isa.OpSari:
		r[in.Rd] = uint64(int64(r[in.Rs1]) >> (uint64(imm) & 63))
	case isa.OpSlti:
		r[in.Rd] = b2u(int64(r[in.Rs1]) < imm)

	case isa.OpLdi:
		r[in.Rd] = uint64(imm)
	case isa.OpLdih:
		r[in.Rd] = r[in.Rd]&0xFFFF_FFFF | uint64(in.Imm)<<32

	// Loads and stores.
	case isa.OpLdb, isa.OpLdbu, isa.OpLdh, isa.OpLdhu, isa.OpLdw, isa.OpLdwu, isa.OpLdd:
		va := r[in.Rs1] + uint64(imm)
		var size uint
		switch in.Op {
		case isa.OpLdb, isa.OpLdbu:
			size = 1
		case isa.OpLdh, isa.OpLdhu:
			size = 2
		case isa.OpLdw, isa.OpLdwu:
			size = 4
		default:
			size = 8
		}
		v, f := m.loadN(s, va, size)
		if f != nil {
			return f
		}
		switch in.Op {
		case isa.OpLdb:
			v = uint64(int64(int8(v)))
		case isa.OpLdh:
			v = uint64(int64(int16(v)))
		case isa.OpLdw:
			v = uint64(int64(int32(v)))
		}
		r[in.Rd] = v
	case isa.OpStb:
		if f := m.storeN(s, r[in.Rs1]+uint64(imm), 1, r[in.Rd]); f != nil {
			return f
		}
	case isa.OpSth:
		if f := m.storeN(s, r[in.Rs1]+uint64(imm), 2, r[in.Rd]); f != nil {
			return f
		}
	case isa.OpStw:
		if f := m.storeN(s, r[in.Rs1]+uint64(imm), 4, r[in.Rd]); f != nil {
			return f
		}
	case isa.OpStd:
		if f := m.storeN(s, r[in.Rs1]+uint64(imm), 8, r[in.Rd]); f != nil {
			return f
		}

	// Floating point.
	case isa.OpFld:
		v, f := m.loadN(s, r[in.Rs1]+uint64(imm), 8)
		if f != nil {
			return f
		}
		fr[in.Rd] = math.Float64frombits(v)
	case isa.OpFst:
		if f := m.storeN(s, r[in.Rs1]+uint64(imm), 8, math.Float64bits(fr[in.Rd])); f != nil {
			return f
		}
	case isa.OpFadd:
		fr[in.Rd] = fr[in.Rs1] + fr[in.Rs2]
	case isa.OpFsub:
		fr[in.Rd] = fr[in.Rs1] - fr[in.Rs2]
	case isa.OpFmul:
		fr[in.Rd] = fr[in.Rs1] * fr[in.Rs2]
	case isa.OpFdiv:
		fr[in.Rd] = fr[in.Rs1] / fr[in.Rs2]
	case isa.OpFmin:
		fr[in.Rd] = math.Min(fr[in.Rs1], fr[in.Rs2])
	case isa.OpFmax:
		fr[in.Rd] = math.Max(fr[in.Rs1], fr[in.Rs2])
	case isa.OpFsqrt:
		fr[in.Rd] = math.Sqrt(fr[in.Rs1])
	case isa.OpFabs:
		fr[in.Rd] = math.Abs(fr[in.Rs1])
	case isa.OpFneg:
		fr[in.Rd] = -fr[in.Rs1]
	case isa.OpFmov:
		fr[in.Rd] = fr[in.Rs1]
	case isa.OpFlt:
		r[in.Rd] = b2u(fr[in.Rs1] < fr[in.Rs2])
	case isa.OpFle:
		r[in.Rd] = b2u(fr[in.Rs1] <= fr[in.Rs2])
	case isa.OpFeq:
		r[in.Rd] = b2u(fr[in.Rs1] == fr[in.Rs2])
	case isa.OpItof:
		fr[in.Rd] = float64(int64(r[in.Rs1]))
	case isa.OpFtoi:
		r[in.Rd] = uint64(int64(fr[in.Rs1]))
	case isa.OpFmvi:
		fr[in.Rd] = math.Float64frombits(r[in.Rs1])
	case isa.OpImvf:
		r[in.Rd] = math.Float64bits(fr[in.Rs1])

	// Control flow.
	case isa.OpJmp:
		nextPC = s.PC + uint64(imm)
	case isa.OpJal:
		r[in.Rd] = s.PC + isa.WordSize
		nextPC = s.PC + uint64(imm)
	case isa.OpJr:
		nextPC = r[in.Rs1]
	case isa.OpJalr:
		t := r[in.Rs1]
		r[in.Rd] = s.PC + isa.WordSize
		nextPC = t
	case isa.OpBeq:
		if r[in.Rs1] == r[in.Rs2] {
			nextPC = s.PC + uint64(imm)
		}
	case isa.OpBne:
		if r[in.Rs1] != r[in.Rs2] {
			nextPC = s.PC + uint64(imm)
		}
	case isa.OpBlt:
		if int64(r[in.Rs1]) < int64(r[in.Rs2]) {
			nextPC = s.PC + uint64(imm)
		}
	case isa.OpBge:
		if int64(r[in.Rs1]) >= int64(r[in.Rs2]) {
			nextPC = s.PC + uint64(imm)
		}
	case isa.OpBltu:
		if r[in.Rs1] < r[in.Rs2] {
			nextPC = s.PC + uint64(imm)
		}
	case isa.OpBgeu:
		if r[in.Rs1] >= r[in.Rs2] {
			nextPC = s.PC + uint64(imm)
		}

	// Atomics. One instruction commits machine-wide at a time, so these
	// are architecturally atomic; alignment is required.
	case isa.OpAxchg, isa.OpAcas, isa.OpAadd:
		va := r[in.Rs1]
		if va%8 != 0 {
			return &trapFault{trap: isa.TrapBadInstr, info: va}
		}
		old, f := m.loadN(s, va, 8)
		if f != nil {
			return f
		}
		var store uint64
		doStore := true
		switch in.Op {
		case isa.OpAxchg:
			store = r[in.Rs2]
		case isa.OpAcas:
			if old == r[in.Rd] {
				store = r[in.Rs2]
			} else {
				doStore = false
			}
		case isa.OpAadd:
			store = old + r[in.Rs2]
		}
		if doStore {
			if f := m.storeN(s, va, 8, store); f != nil {
				return f
			}
		}
		r[in.Rd] = old

	// System.
	case isa.OpSyscall:
		return &trapFault{trap: isa.TrapSyscall, info: r[isa.RRet]}
	case isa.OpIret:
		s.Ring = isa.Ring3
	case isa.OpMovtcr:
		cr := isa.CR(in.Imm)
		if int(cr) >= isa.NumCRs {
			return &trapFault{trap: isa.TrapGP, info: uint64(in.Imm)}
		}
		s.CRs[cr] = r[in.Rs1]
		if cr == isa.CR3 {
			m.NotifyCRWrite(s)
		}
	case isa.OpMovfcr:
		cr := isa.CR(in.Imm)
		if int(cr) >= isa.NumCRs {
			return &trapFault{trap: isa.TrapGP, info: uint64(in.Imm)}
		}
		r[in.Rd] = s.CRs[cr]
	case isa.OpHlt:
		s.State = StateIdle
	case isa.OpInvlpg:
		s.TLB.FlushPage(r[in.Rs1])
		s.fetchVPN = 0
		s.winGen = nil
	case isa.OpTlbflush:
		s.flushTranslation()

	case isa.OpSettp:
		s.TP = r[in.Rs1]
	case isa.OpGettp:
		r[in.Rd] = s.TP

	// MISP extension.
	case isa.OpSignal:
		if f := m.doSignal(s, in); f != nil {
			return f
		}
	case isa.OpSetyield:
		sc := in.Imm
		if sc < 0 || sc >= isa.NumScenarios {
			return &trapFault{trap: isa.TrapGP, info: uint64(uint32(sc))}
		}
		s.Yield[sc] = r[in.Rs1]
	case isa.OpSret:
		if !s.InHandler {
			// sret reports the fatal error; the instruction must not
			// retire (no cost, no Instrs/Steps) on the way down.
			m.sret(s)
			return nil
		}
		s.Clock += uint64(info.Cost)
		s.C.Instrs++
		m.Steps++
		m.sret(s) // restores PC itself
		return nil
	case isa.OpSavectx:
		s.Clock += CtxMemCost
		if f := m.writeCtxFrame(s, r[in.Rs1], s.PC+isa.WordSize, nil); f != nil {
			return f
		}
	case isa.OpLdctx:
		if f := m.readCtxFrame(s, r[in.Rs1]); f != nil {
			return f
		}
		s.Clock += CtxMemCost + uint64(info.Cost)
		s.C.Instrs++
		m.Steps++
		return nil // PC comes from the frame
	case isa.OpProxyexec:
		if f := m.proxyExec(s, r[in.Rs1]); f != nil {
			return f
		}

	default:
		return &trapFault{trap: isa.TrapBadInstr, info: s.PC}
	}

	s.PC = nextPC
	s.Clock += uint64(info.Cost)
	s.C.Instrs++
	m.Steps++
	return nil
}

// seqid is what SEQID reads, by the kind its immediate selects: s's
// place in the machine's fixed topology.
func (m *Machine) seqid(s *Sequencer, kind int64) uint64 {
	switch kind {
	case 1:
		return uint64(s.SID)
	case 2:
		return uint64(s.ProcID)
	case 3:
		return uint64(len(m.Proc(s).AMSs()))
	}
	return uint64(s.ID)
}

// malformed reports a word no executor may dispatch on: an undefined
// opcode, or a register field that would index past the register files.
// isa.Decode masks nothing and only the assembler validates, so stored
// code, a jump into data or a memory bit flip can produce one.
func malformed(in isa.Instr) bool {
	return !isa.Valid(in.Op) || in.Rd >= isa.NumRegs || in.Rs1 >= isa.NumRegs || in.Rs2 >= isa.NumRegs
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
