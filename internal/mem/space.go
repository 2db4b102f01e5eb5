package mem

import (
	"fmt"
	"sort"
)

// VMA is a virtual memory area: a contiguous, page-aligned region of a
// process's address space, populated on demand. If Backing is non-nil
// the first len(Backing) bytes of the region are initialized from it on
// first touch (the program image); remaining pages are zero-filled.
type VMA struct {
	Name     string
	Start    uint64
	End      uint64 // exclusive
	Writable bool
	Backing  []byte
}

func (v *VMA) contains(va uint64) bool { return va >= v.Start && va < v.End }

// Space is one process's virtual address space: its page table plus the
// VMA list that drives demand paging.
type Space struct {
	Phys *Phys
	PT   *PageTable
	vmas []*VMA
	Brk  uint64 // current heap break (top of the heap VMA in use)

	// MappedPages counts pages populated so far (compulsory page faults
	// for this address space correspond 1:1 to populations).
	Mapped uint64
}

// NewSpace creates an empty address space with a fresh page table.
func NewSpace(p *Phys) (*Space, error) {
	pt, err := NewPageTable(p)
	if err != nil {
		return nil, err
	}
	return &Space{Phys: p, PT: pt}, nil
}

// AddVMA registers a region. start must be page aligned; size is
// rounded up to a page multiple. Overlapping an existing VMA is an error.
func (s *Space) AddVMA(name string, start, size uint64, writable bool, backing []byte) (*VMA, error) {
	if start%PageSize != 0 {
		return nil, fmt.Errorf("mem: VMA %q start 0x%x not page aligned", name, start)
	}
	if size == 0 {
		return nil, fmt.Errorf("mem: VMA %q has zero size", name)
	}
	end := start + (size+PageSize-1)&^uint64(PageMask)
	if end > VAMax {
		return nil, fmt.Errorf("mem: VMA %q [0x%x,0x%x) beyond 32-bit space", name, start, end)
	}
	if uint64(len(backing)) > end-start {
		return nil, fmt.Errorf("mem: VMA %q backing larger than region", name)
	}
	for _, v := range s.vmas {
		if start < v.End && v.Start < end {
			return nil, fmt.Errorf("mem: VMA %q [0x%x,0x%x) overlaps %q [0x%x,0x%x)",
				name, start, end, v.Name, v.Start, v.End)
		}
	}
	vma := &VMA{Name: name, Start: start, End: end, Writable: writable, Backing: backing}
	s.vmas = append(s.vmas, vma)
	sort.Slice(s.vmas, func(i, j int) bool { return s.vmas[i].Start < s.vmas[j].Start })
	return vma, nil
}

// Find returns the VMA containing va, or nil.
func (s *Space) Find(va uint64) *VMA {
	i := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].End > va })
	if i < len(s.vmas) && s.vmas[i].contains(va) {
		return s.vmas[i]
	}
	return nil
}

// VMAs returns the region list (read-only use).
func (s *Space) VMAs() []*VMA { return s.vmas }

// HandleFault services a page fault at va. It returns true if the fault
// was a legal demand-paging fault and the page is now mapped; false for
// an access outside any VMA or a write to a read-only region (a real
// segfault). An allocation failure is returned as an error.
func (s *Space) HandleFault(va uint64, write bool) (bool, error) {
	v := s.Find(va)
	if v == nil || (write && !v.Writable) {
		return false, nil
	}
	pageVA := va &^ uint64(PageMask)
	if _, present := s.PT.Lookup(pageVA); present {
		// Raced with another sequencer's fault on the same page (or a
		// stale TLB); nothing to do.
		return true, nil
	}
	frame, err := s.Phys.AllocFrame()
	if err != nil {
		return false, err
	}
	// Populate from backing image where it covers this page.
	if off := pageVA - v.Start; off < uint64(len(v.Backing)) {
		n := copy(s.Phys.Frame(frame), v.Backing[off:])
		_ = n
	}
	flags := PTEUser | PTEAccessed
	if v.Writable {
		flags |= PTEWritable
	}
	if err := s.PT.Map(pageVA, frame, flags); err != nil {
		s.Phys.FreeFrame(frame)
		return false, err
	}
	s.Mapped++
	return true, nil
}

// Prefault populates every page of [va, va+n). Used by the loader for
// pages that must exist before first run and by the SysPrefault
// page-probe optimization (§5.3). It returns the number of pages
// populated by this call.
func (s *Space) Prefault(va, n uint64) (int, error) {
	if n == 0 {
		return 0, nil
	}
	count := 0
	for p := va &^ uint64(PageMask); p < va+n; p += PageSize {
		if _, present := s.PT.Lookup(p); present {
			continue
		}
		ok, err := s.HandleFault(p, false)
		if err != nil {
			return count, err
		}
		if !ok {
			return count, fmt.Errorf("mem: Prefault: 0x%x outside any VMA", p)
		}
		count++
	}
	return count, nil
}

// Translate resolves va via the page table (not a TLB), faulting the
// page in if necessary. It is the kernel's access path for copying
// syscall buffers. write selects the required permission.
func (s *Space) Translate(va uint64, write bool) (uint64, error) {
	pte, ok := s.PT.Lookup(va)
	if !ok {
		mapped, err := s.HandleFault(va, write)
		if err != nil {
			return 0, err
		}
		if !mapped {
			return 0, fmt.Errorf("mem: kernel access fault at 0x%x", va)
		}
		pte, _ = s.PT.Lookup(va)
	}
	if write && pte&PTEWritable == 0 {
		return 0, fmt.Errorf("mem: kernel write to read-only page 0x%x", va)
	}
	pa := uint64(pteFrame(pte))<<PageShift | (va & PageMask)
	if !s.Phys.InRange(pa, 1) {
		return 0, fmt.Errorf("mem: kernel access through corrupt PTE 0x%x at 0x%x", pte, va)
	}
	return pa, nil
}

// ReadBytes copies n bytes from the space at va (kernel path).
func (s *Space) ReadBytes(va, n uint64) ([]byte, error) {
	out := make([]byte, 0, n)
	for n > 0 {
		pa, err := s.Translate(va, false)
		if err != nil {
			return nil, err
		}
		chunk := PageSize - (va & PageMask)
		if chunk > n {
			chunk = n
		}
		out = append(out, s.Phys.Bytes(pa, chunk)...)
		va += chunk
		n -= chunk
	}
	return out, nil
}

// WriteBytes copies data into the space at va (kernel/loader path).
func (s *Space) WriteBytes(va uint64, data []byte) error {
	for len(data) > 0 {
		pa, err := s.Translate(va, true)
		if err != nil {
			return err
		}
		chunk := int(PageSize - (va & PageMask))
		if chunk > len(data) {
			chunk = len(data)
		}
		copy(s.Phys.BytesRW(pa, uint64(chunk)), data[:chunk])
		va += uint64(chunk)
		data = data[chunk:]
	}
	return nil
}

// ReadU64 reads one uint64 from the space (kernel path; must not cross
// a page boundary is NOT required — handled via ReadBytes fallback).
func (s *Space) ReadU64(va uint64) (uint64, error) {
	if va&PageMask <= PageSize-8 {
		pa, err := s.Translate(va, false)
		if err != nil {
			return 0, err
		}
		return s.Phys.ReadU64(pa), nil
	}
	b, err := s.ReadBytes(va, 8)
	if err != nil {
		return 0, err
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, nil
}

// WriteU64 writes one uint64 into the space (kernel path).
func (s *Space) WriteU64(va uint64, v uint64) error {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return s.WriteBytes(va, b[:])
}
