package mem

import "fmt"

// Two-level page table over a 32-bit virtual address space, x86-style:
// VA[31:22] indexes the page directory, VA[21:12] the page table,
// VA[11:0] is the page offset. Directory and table entries are 32-bit
// words, so each level occupies exactly one frame.
//
// PTE layout: [frame:20][reserved:6][flags:6]
const (
	PTEPresent  uint32 = 1 << 0
	PTEWritable uint32 = 1 << 1
	PTEUser     uint32 = 1 << 2
	PTEAccessed uint32 = 1 << 3
	PTEDirty    uint32 = 1 << 4

	pteFrameShift = 12
	entriesPerTab = 1024
)

// VAMax is the first invalid virtual address (32-bit space).
const VAMax = uint64(1) << 32

func pdIndex(va uint64) uint64 { return (va >> 22) & 0x3FF }
func ptIndex(va uint64) uint64 { return (va >> 12) & 0x3FF }

// pteFrame extracts the frame number from a PTE.
func pteFrame(pte uint32) uint32 { return pte >> pteFrameShift }

// PTEFrame extracts the frame number from a PTE (exported for the
// hardware TLB-fill path in the machine core).
func PTEFrame(pte uint32) uint32 { return pteFrame(pte) }

// makePTE builds a PTE from a frame number and flags.
func makePTE(frame uint32, flags uint32) uint32 {
	return frame<<pteFrameShift | (flags & 0xFFF)
}

// PageTable manipulates a two-level page table rooted at a physical
// frame. The table lives in simulated physical memory, so the hardware
// page walker and the kernel see the same bytes.
type PageTable struct {
	Phys *Phys
	Root uint32 // frame number of the page directory
}

// NewPageTable allocates an empty page directory.
func NewPageTable(p *Phys) (*PageTable, error) {
	root, err := p.AllocFrame()
	if err != nil {
		return nil, err
	}
	return &PageTable{Phys: p, Root: root}, nil
}

// RootPA returns the physical address of the page directory, the value
// loaded into CR3.
func (pt *PageTable) RootPA() uint64 { return uint64(pt.Root) << PageShift }

// Map installs a translation va -> frame with the given PTE flags
// (PTEPresent is implied). It allocates an intermediate table if needed.
func (pt *PageTable) Map(va uint64, frame uint32, flags uint32) error {
	if va >= VAMax {
		return fmt.Errorf("mem: Map: va 0x%x beyond 32-bit space", va)
	}
	pdePA := pt.RootPA() + pdIndex(va)*4
	pde := pt.Phys.ReadU32(pdePA)
	var tabFrame uint32
	if pde&PTEPresent != 0 && !pt.Phys.frameValid(pteFrame(pde)) {
		return fmt.Errorf("mem: Map: corrupt PDE 0x%x for va 0x%x", pde, va)
	}
	if pde&PTEPresent == 0 {
		f, err := pt.Phys.AllocFrame()
		if err != nil {
			return err
		}
		tabFrame = f
		pt.Phys.WriteU32(pdePA, makePTE(f, PTEPresent|PTEWritable|PTEUser))
	} else {
		tabFrame = pteFrame(pde)
	}
	ptePA := uint64(tabFrame)<<PageShift + ptIndex(va)*4
	pt.Phys.WriteU32(ptePA, makePTE(frame, flags|PTEPresent))
	return nil
}

// Unmap removes the translation for va, returning the frame that was
// mapped and whether a mapping existed. The frame is not freed.
func (pt *PageTable) Unmap(va uint64) (uint32, bool) {
	pde := pt.Phys.ReadU32(pt.RootPA() + pdIndex(va)*4)
	if pde&PTEPresent == 0 || !pt.Phys.frameValid(pteFrame(pde)) {
		return 0, false
	}
	ptePA := uint64(pteFrame(pde))<<PageShift + ptIndex(va)*4
	pte := pt.Phys.ReadU32(ptePA)
	if pte&PTEPresent == 0 {
		return 0, false
	}
	pt.Phys.WriteU32(ptePA, 0)
	return pteFrame(pte), true
}

// Lookup returns the PTE for va and whether it is present.
func (pt *PageTable) Lookup(va uint64) (uint32, bool) {
	if va >= VAMax {
		return 0, false
	}
	pde := pt.Phys.ReadU32(pt.RootPA() + pdIndex(va)*4)
	if pde&PTEPresent == 0 || !pt.Phys.frameValid(pteFrame(pde)) {
		return 0, false
	}
	pte := pt.Phys.ReadU32(uint64(pteFrame(pde))<<PageShift + ptIndex(va)*4)
	if pte&PTEPresent == 0 || !pt.Phys.frameValid(pteFrame(pte)) {
		return 0, false
	}
	return pte, true
}

// MappedPages counts present leaf translations (used by tests and the
// event accounting).
func (pt *PageTable) MappedPages() int {
	n := 0
	for d := uint64(0); d < entriesPerTab; d++ {
		pde := pt.Phys.ReadU32(pt.RootPA() + d*4)
		if pde&PTEPresent == 0 || !pt.Phys.frameValid(pteFrame(pde)) {
			continue
		}
		tab := uint64(pteFrame(pde)) << PageShift
		for t := uint64(0); t < entriesPerTab; t++ {
			if pt.Phys.ReadU32(tab+t*4)&PTEPresent != 0 {
				n++
			}
		}
	}
	return n
}

// WalkCost is the cycle cost of a hardware two-level page walk (two
// dependent physical reads plus fill).
const WalkCost = 24

// FaultKind classifies a failed hardware translation.
type FaultKind uint8

const (
	FaultNone       FaultKind = iota
	FaultNotPresent           // no present PTE
	FaultProtection           // present but access not permitted
)

// Walk performs the hardware page walk for va rooted at the directory
// frame in cr3 (a physical address). user/write describe the access.
// On success it returns the PTE; otherwise the fault kind. A directory
// entry outside physical memory (a ring-0 program may load CR3 with any
// value) is not present; every frame the walk goes on to name is backed
// before it is read or returned.
func Walk(p *Phys, cr3 uint64, va uint64, write, user bool) (uint32, FaultKind) {
	pdePA := cr3 + pdIndex(va)*4
	if va >= VAMax || !p.Back(pdePA, 4) {
		return 0, FaultNotPresent
	}
	pde := p.ReadU32(pdePA)
	if pde&PTEPresent == 0 || !p.frameValid(pteFrame(pde)) {
		return 0, FaultNotPresent
	}
	pte := p.ReadU32(uint64(pteFrame(pde))<<PageShift + ptIndex(va)*4)
	if pte&PTEPresent == 0 || !p.frameValid(pteFrame(pte)) {
		return 0, FaultNotPresent
	}
	if write && pte&PTEWritable == 0 {
		return 0, FaultProtection
	}
	if user && pte&PTEUser == 0 {
		return 0, FaultProtection
	}
	return pte, FaultNone
}
