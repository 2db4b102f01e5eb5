package core

import (
	"encoding/binary"
	"math"

	"misp/internal/isa"
	"misp/internal/mem"
)

// fault describes a trap raised mid-instruction. The instruction did
// not commit; s.PC still points at it.
type trapFault struct {
	trap isa.Trap
	info uint64
}

// Page-fault info encoding: bits 0–61 carry the faulting VA, bit 62
// marks a fetch access and bit 63 a write. Virtual addresses at or
// above 2^62 cannot be encoded and raise #GP instead (vaEncodeLimit);
// every architecturally reachable VA fits.
const (
	PFWrite uint64 = 1 << 63
	PFFetch uint64 = 1 << 62

	pfAddrMask    = PFFetch - 1
	vaEncodeLimit = uint64(1) << 62
)

// PFAddr extracts the faulting virtual address from trap info.
func PFAddr(info uint64) uint64 { return info & pfAddrMask }

// PFIsWrite reports whether the faulting access was a write.
func PFIsWrite(info uint64) bool { return info&PFWrite != 0 }

func pfFault(va uint64, write, fetch bool) *trapFault {
	info := va & pfAddrMask
	if write {
		info |= PFWrite
	}
	if fetch {
		info |= PFFetch
	}
	return &trapFault{trap: isa.TrapPageFault, info: info}
}

// translate resolves va for a data access on s, consulting the TLB and
// walking the page table on a miss (charging the walk). With paging
// disabled (CR0), addresses are physical.
func (m *Machine) translate(s *Sequencer, va uint64, write bool) (uint64, *trapFault) {
	if s.CRs[isa.CR0]&isa.CR0Paging == 0 {
		if !m.Phys.Back(va, 1) {
			return 0, &trapFault{trap: isa.TrapGP, info: va}
		}
		return va, nil
	}
	if va >= vaEncodeLimit {
		// The VA cannot be represented in the page-fault info encoding
		// (it would alias the access bits); treat it as a #GP, like a
		// non-canonical address.
		return 0, &trapFault{trap: isa.TrapGP, info: va}
	}
	if pfn, ok := s.TLB.Lookup(va, write); ok {
		return uint64(pfn)<<mem.PageShift | va&mem.PageMask, nil
	}
	s.Clock += mem.WalkCost
	pte, k := mem.Walk(m.Phys, s.CRs[isa.CR3], va, write, s.Ring == isa.Ring3)
	if k != mem.FaultNone {
		return 0, pfFault(va, write, false)
	}
	s.TLB.Insert(va, mem.PTEFrame(pte), pte&mem.PTEWritable != 0)
	return uint64(mem.PTEFrame(pte))<<mem.PageShift | va&mem.PageMask, nil
}

// readN reads size bytes (1, 2, 4, 8) of physical memory at pa,
// little-endian, zero-extended.
func (m *Machine) readN(pa uint64, size uint) uint64 {
	switch size {
	case 1:
		return uint64(m.Phys.ReadU8(pa))
	case 2:
		return uint64(m.Phys.ReadU16(pa))
	case 4:
		return uint64(m.Phys.ReadU32(pa))
	}
	return m.Phys.ReadU64(pa)
}

// loadN reads size bytes (1, 2, 4, 8) at va, little-endian,
// zero-extended. Accesses may straddle a page boundary.
func (m *Machine) loadN(s *Sequencer, va uint64, size uint) (uint64, *trapFault) {
	off := va & mem.PageMask
	if off+uint64(size) <= mem.PageSize {
		pa, f := m.translate(s, va, false)
		if f != nil {
			return 0, f
		}
		return m.readN(pa, size), nil
	}
	// Page-straddling access: translate both pages up front (so the
	// fault, if any, reports the correct page), then read each half with
	// one chunked copy.
	second := (va | uint64(mem.PageMask)) + 1
	pa0, f := m.translate(s, va, false)
	if f != nil {
		return 0, f
	}
	pa1, f := m.translate(s, second, false)
	if f != nil {
		return 0, f
	}
	n0 := second - va
	var buf [8]byte
	copy(buf[:n0], m.Phys.Bytes(pa0, n0))
	copy(buf[n0:size], m.Phys.Bytes(pa1, uint64(size)-n0))
	v := binary.LittleEndian.Uint64(buf[:])
	if size < 8 {
		v &= 1<<(8*size) - 1
	}
	return v, nil
}

// storeN writes size bytes at va, little-endian.
func (m *Machine) storeN(s *Sequencer, va uint64, size uint, v uint64) *trapFault {
	off := va & mem.PageMask
	if off+uint64(size) <= mem.PageSize {
		pa, f := m.translate(s, va, true)
		if f != nil {
			return f
		}
		switch size {
		case 1:
			m.Phys.WriteU8(pa, uint8(v))
		case 2:
			m.Phys.WriteU16(pa, uint16(v))
		case 4:
			m.Phys.WriteU32(pa, uint32(v))
		default:
			m.Phys.WriteU64(pa, v)
		}
		return nil
	}
	// Page-straddling store: translate BOTH pages before writing any
	// byte, so a fault on the second page reports that page's VA and
	// leaves no partial store visible on the first. Each half is one
	// chunked copy through BytesRW, which bumps the store generations.
	second := (va | uint64(mem.PageMask)) + 1
	pa0, f := m.translate(s, va, true)
	if f != nil {
		return f
	}
	pa1, f := m.translate(s, second, true)
	if f != nil {
		return f
	}
	n0 := second - va
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	copy(m.Phys.BytesRW(pa0, n0), buf[:n0])
	copy(m.Phys.BytesRW(pa1, uint64(size)-n0), buf[n0:size])
	return nil
}

// fetchTranslate resolves the physical base of the code page holding
// s.PC through the per-sequencer fetch micro-cache: a fetch from the
// same virtual page as the last one bypasses the TLB entirely.
func (m *Machine) fetchTranslate(s *Sequencer) (uint64, *trapFault) {
	pc := s.PC
	if pc%isa.WordSize != 0 {
		return 0, &trapFault{trap: isa.TrapBadInstr, info: pc}
	}
	if s.CRs[isa.CR0]&isa.CR0Paging == 0 {
		if !m.Phys.Back(pc, isa.WordSize) {
			return 0, &trapFault{trap: isa.TrapGP, info: pc}
		}
		return pc &^ uint64(mem.PageMask), nil
	}
	if pc >= vaEncodeLimit {
		return 0, &trapFault{trap: isa.TrapGP, info: pc}
	}
	vpn := pc >> mem.PageShift
	if s.fetchVPN != vpn+1 {
		if pfn, ok := s.TLB.Lookup(pc, false); ok {
			s.fetchVPN = vpn + 1
			s.fetchBase = uint64(pfn) << mem.PageShift
		} else {
			s.Clock += mem.WalkCost
			pte, k := mem.Walk(m.Phys, s.CRs[isa.CR3], pc, false, s.Ring == isa.Ring3)
			if k != mem.FaultNone {
				return 0, pfFault(pc, false, true)
			}
			s.TLB.Insert(pc, mem.PTEFrame(pte), pte&mem.PTEWritable != 0)
			s.fetchVPN = vpn + 1
			s.fetchBase = uint64(mem.PTEFrame(pte)) << mem.PageShift
		}
	}
	return s.fetchBase, nil
}

// fetchSlow is the fast path's fetch on a window miss: it translates,
// re-points the fetch window at the code page and attaches the page's
// compiled view (nil for a blacklisted page, which keeps the window
// invalid), then decodes the instruction at s.PC straight from memory
// for the interpreter leg. The window hit — same virtual page as the
// last fetch, no intervening store — is checked inline by runBatch and
// never gets here.
func (m *Machine) fetchSlow(s *Sequencer) (isa.Instr, *trapFault) {
	base, f := m.fetchTranslate(s)
	if f != nil {
		return isa.Instr{}, f
	}
	s.winVA = s.PC &^ uint64(mem.PageMask)
	s.winGen = m.Phys.GenPtr(base)
	s.sb = m.sbEnsure(base)
	return isa.Decode(m.Phys.ReadU64(base | s.PC&mem.PageMask)), nil
}

// fetchUncached is the seed interpreter's fetch — decode from memory on
// every instruction, no window and no compiled pages — which keeps the
// legacy loop independent of everything the fast path caches.
func (m *Machine) fetchUncached(s *Sequencer) (isa.Instr, *trapFault) {
	base, f := m.fetchTranslate(s)
	if f != nil {
		return isa.Instr{}, f
	}
	return isa.Decode(m.Phys.ReadU64(base | s.PC&mem.PageMask)), nil
}

// writeCtxFrame spills s's architectural context to the frame at va
// (SAVECTX / firmware proxy save). pc is the frame's continuation PC;
// f, when non-nil, records the pending trap that triggered the save.
func (m *Machine) writeCtxFrame(s *Sequencer, va, pc uint64, f *trapFault) *trapFault {
	for i := 0; i < isa.NumRegs; i++ {
		if ff := m.storeN(s, va+isa.CtxRegs+uint64(i)*8, 8, s.Regs[i]); ff != nil {
			return ff
		}
		if ff := m.storeN(s, va+isa.CtxFRegs+uint64(i)*8, 8, math.Float64bits(s.FRegs[i])); ff != nil {
			return ff
		}
	}
	if ff := m.storeN(s, va+isa.CtxPC, 8, pc); ff != nil {
		return ff
	}
	if ff := m.storeN(s, va+isa.CtxTP, 8, s.TP); ff != nil {
		return ff
	}
	var trap, info uint64
	if f != nil {
		trap, info = uint64(f.trap), f.info
	}
	if ff := m.storeN(s, va+isa.CtxTrap, 8, trap); ff != nil {
		return ff
	}
	return m.storeN(s, va+isa.CtxTInfo, 8, info)
}

// readCtxFrame installs the context frame at va into s (LDCTX /
// firmware proxy restore). Execution continues at the frame's PC.
func (m *Machine) readCtxFrame(s *Sequencer, va uint64) *trapFault {
	var regs [isa.NumRegs]uint64
	var fregs [isa.NumRegs]float64
	for i := 0; i < isa.NumRegs; i++ {
		v, f := m.loadN(s, va+isa.CtxRegs+uint64(i)*8, 8)
		if f != nil {
			return f
		}
		regs[i] = v
		fv, f := m.loadN(s, va+isa.CtxFRegs+uint64(i)*8, 8)
		if f != nil {
			return f
		}
		fregs[i] = math.Float64frombits(fv)
	}
	pc, f := m.loadN(s, va+isa.CtxPC, 8)
	if f != nil {
		return f
	}
	tp, f := m.loadN(s, va+isa.CtxTP, 8)
	if f != nil {
		return f
	}
	s.Regs, s.FRegs, s.PC, s.TP = regs, fregs, pc, tp
	return nil
}
