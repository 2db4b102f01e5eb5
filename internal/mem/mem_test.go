package mem

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"misp/internal/snap/wire"
)

func newPhysT(t *testing.T, pages int) *Phys {
	t.Helper()
	p, err := NewPhys(uint64(pages) * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPhysAllocFree(t *testing.T) {
	p := newPhysT(t, 8)
	if p.FreeFrames() != 7 { // frame 0 reserved
		t.Fatalf("FreeFrames = %d, want 7", p.FreeFrames())
	}
	var frames []uint32
	for i := 0; i < 7; i++ {
		f, err := p.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f == 0 {
			t.Fatal("allocated reserved frame 0")
		}
		frames = append(frames, f)
	}
	if _, err := p.AllocFrame(); err == nil {
		t.Fatal("allocation beyond capacity succeeded")
	}
	for _, f := range frames {
		p.FreeFrame(f)
	}
	if p.FreeFrames() != 7 {
		t.Fatalf("after free, FreeFrames = %d, want 7", p.FreeFrames())
	}
}

// TestFreeFrameNeverAllocated: giving back a frame at or above the
// watermark panics, as one out of range does, so no state a capture
// can see holds a given-back frame the decoder would refuse.
func TestFreeFrameNeverAllocated(t *testing.T) {
	p := newPhysT(t, 8)
	f, _ := p.AllocFrame()
	for _, bad := range []uint32{0, f + 1, 7, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FreeFrame(%d) with only frame %d allocated did not panic", bad, f)
				}
			}()
			p.FreeFrame(bad)
		}()
	}
	if p.FreeFrames() != 6 {
		t.Fatalf("FreeFrames = %d after refused frees, want 6", p.FreeFrames())
	}
}

// TestRestorePhysRejectsAllocator feeds RestorePhys memory sections
// whose allocator no capture writes: each fails with an error, without
// a panic or an allocation sized by the given-back count.
func TestRestorePhysRejectsAllocator(t *testing.T) {
	const frames = 16
	section := func(hw uint32, count uint64, given ...uint32) []byte {
		c := wire.NewEncoder(64)
		n := uint32(frames)
		c.U32(&n)
		c.U32(&hw)
		c.U64(&count)
		for i := range given {
			c.U32(&given[i])
		}
		var resident uint64
		c.U64(&resident)
		return c.Bytes()
	}
	if _, err := RestorePhys(wire.NewDecoder(section(4, 1, 3)), frames*PageSize); err != nil {
		t.Fatalf("a well-formed section: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		section    []byte
	}{
		{"watermark 0", "watermark", section(0, 0)},
		{"watermark above the frame count", "watermark", section(frames+1, 0)},
		{"given-back frame 0", "given-back", section(4, 1, 0)},
		{"given-back frame at the watermark", "given-back", section(4, 1, 4)},
		{"given-back count past the end", "count", section(4, 1<<40)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := RestorePhys(wire.NewDecoder(tc.section), frames*PageSize)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RestorePhys = %v, want a %s error", tc.name, err, tc.want)
		}
		if p != nil {
			t.Errorf("%s: RestorePhys returned a memory beside its error", tc.name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: rejecting a %d-byte section allocated %d bytes", tc.name, len(tc.section), n)
		}
	}
}

func TestPhysAllocZeroes(t *testing.T) {
	p := newPhysT(t, 4)
	f, _ := p.AllocFrame()
	for i := range p.Frame(f) {
		p.Frame(f)[i] = 0xAB
	}
	p.FreeFrame(f)
	f2, _ := p.AllocFrame()
	if f2 != f {
		t.Fatalf("LIFO allocator expected to return %d, got %d", f, f2)
	}
	for i, b := range p.Frame(f2) {
		if b != 0 {
			t.Fatalf("reallocated frame not zeroed at %d: %#x", i, b)
		}
	}
}

func TestPhysScalarAccessors(t *testing.T) {
	p := newPhysT(t, 2)
	p.WriteU64(100, 0x1122334455667788)
	if p.ReadU64(100) != 0x1122334455667788 {
		t.Fatal("u64 round trip failed")
	}
	if p.ReadU32(100) != 0x55667788 || p.ReadU16(100) != 0x7788 || p.ReadU8(100) != 0x88 {
		t.Fatal("little-endian layout violated")
	}
	p.WriteU32(200, 0xDEADBEEF)
	p.WriteU16(210, 0xCAFE)
	p.WriteU8(220, 0x42)
	if p.ReadU32(200) != 0xDEADBEEF || p.ReadU16(210) != 0xCAFE || p.ReadU8(220) != 0x42 {
		t.Fatal("scalar accessors failed")
	}
}

func TestPhysBadSize(t *testing.T) {
	if _, err := NewPhys(0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewPhys(PageSize + 1); err == nil {
		t.Error("unaligned size accepted")
	}
}

// TestPageTableAgainstModel drives Map/Unmap/Lookup randomly and checks
// against a Go map reference model.
func TestPageTableAgainstModel(t *testing.T) {
	p := newPhysT(t, 600)
	pt, err := NewPageTable(p)
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint64]uint32{}
	rng := rand.New(rand.NewSource(7))
	vas := make([]uint64, 200)
	for i := range vas {
		// Spread across several directories.
		vas[i] = (uint64(rng.Intn(8))<<22 | uint64(rng.Intn(64))<<12)
	}
	for step := 0; step < 3000; step++ {
		va := vas[rng.Intn(len(vas))]
		switch rng.Intn(3) {
		case 0: // map
			frame := uint32(rng.Intn(500) + 1)
			if err := pt.Map(va, frame, PTEWritable|PTEUser); err != nil {
				t.Fatal(err)
			}
			model[va] = frame
		case 1: // unmap
			f, ok := pt.Unmap(va)
			mf, mok := model[va]
			if ok != mok || (ok && f != mf) {
				t.Fatalf("Unmap(0x%x) = (%d,%v), model (%d,%v)", va, f, ok, mf, mok)
			}
			delete(model, va)
		case 2: // lookup
			pte, ok := pt.Lookup(va)
			mf, mok := model[va]
			if ok != mok || (ok && pteFrame(pte) != mf) {
				t.Fatalf("Lookup(0x%x) = (%v,%v), model (%d,%v)", va, pte, ok, mf, mok)
			}
		}
	}
	if got := pt.MappedPages(); got != len(model) {
		t.Fatalf("MappedPages = %d, model has %d", got, len(model))
	}
}

func TestWalkPermissions(t *testing.T) {
	p := newPhysT(t, 64)
	pt, _ := NewPageTable(p)
	roFrame, _ := p.AllocFrame()
	kFrame, _ := p.AllocFrame()
	if err := pt.Map(0x1000, roFrame, PTEUser); err != nil { // read-only user
		t.Fatal(err)
	}
	if err := pt.Map(0x2000, kFrame, PTEWritable); err != nil { // kernel-only
		t.Fatal(err)
	}
	cr3 := pt.RootPA()

	if _, k := Walk(p, cr3, 0x1000, false, true); k != FaultNone {
		t.Error("user read of user page faulted")
	}
	if _, k := Walk(p, cr3, 0x1000, true, true); k != FaultProtection {
		t.Error("user write to read-only page did not fault")
	}
	if _, k := Walk(p, cr3, 0x2000, false, true); k != FaultProtection {
		t.Error("user access to kernel page did not fault")
	}
	if _, k := Walk(p, cr3, 0x2000, true, false); k != FaultNone {
		t.Error("kernel write to kernel page faulted")
	}
	if _, k := Walk(p, cr3, 0x5000, false, false); k != FaultNotPresent {
		t.Error("unmapped access did not report not-present")
	}
	if _, k := Walk(p, cr3, VAMax, false, false); k != FaultNotPresent {
		t.Error("out-of-space VA did not fault")
	}
}

func TestTLBBasics(t *testing.T) {
	var tlb TLB
	if _, ok := tlb.Lookup(0x1000, false); ok {
		t.Fatal("empty TLB hit")
	}
	tlb.Insert(0x1000, 42, false)
	if f, ok := tlb.Lookup(0x1000, false); !ok || f != 42 {
		t.Fatalf("Lookup = (%d,%v), want (42,true)", f, ok)
	}
	// Read-only entry must miss for writes (forces a re-walk), counted
	// as a permission miss rather than a cold one.
	if _, ok := tlb.Lookup(0x1000, true); ok {
		t.Fatal("write hit on read-only entry")
	}
	if tlb.PermMisses != 1 {
		t.Fatalf("PermMisses = %d, want 1", tlb.PermMisses)
	}
	tlb.Insert(0x1000, 42, true)
	if _, ok := tlb.Lookup(0x1000, true); !ok {
		t.Fatal("write miss on writable entry")
	}
	tlb.FlushPage(0x1000)
	if _, ok := tlb.Lookup(0x1000, false); ok {
		t.Fatal("hit after FlushPage")
	}
	tlb.Insert(0x3000, 7, true)
	tlb.Flush()
	if _, ok := tlb.Lookup(0x3000, false); ok {
		t.Fatal("hit after Flush")
	}
	if tlb.Hits != 2 || tlb.Flushes != 1 {
		t.Fatalf("stats: hits=%d flushes=%d", tlb.Hits, tlb.Flushes)
	}
	// Cold misses from the empty-TLB and post-flush probes; the
	// permission denial above must not be among them.
	if tlb.Misses != 3 {
		t.Fatalf("Misses = %d, want 3", tlb.Misses)
	}
}

// TestTLBNeverLies: whatever sequence of inserts/flushes happens, a hit
// must return the frame most recently inserted for that VA.
func TestTLBNeverLies(t *testing.T) {
	f := func(ops []uint16) bool {
		var tlb TLB
		model := map[uint32]uint32{} // vpn -> pfn
		for _, op := range ops {
			vpn := uint32(op & 0x3FF)
			va := uint64(vpn) << PageShift
			switch {
			case op&0x8000 != 0:
				tlb.Flush()
				model = map[uint32]uint32{}
			case op&0x4000 != 0:
				tlb.FlushPage(va)
				delete(model, vpn)
			default:
				pfn := uint32(op>>10) + 1
				tlb.Insert(va, pfn, true)
				model[vpn] = pfn
			}
			if pfn, ok := tlb.Lookup(va, false); ok {
				if want, inModel := model[vpn]; !inModel || pfn != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceDemandPaging(t *testing.T) {
	p := newPhysT(t, 128)
	s, err := NewSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	img := []byte("hello, misp")
	if _, err := s.AddVMA("text", 0x10000, 3*PageSize, false, img); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddVMA("data", 0x20000, 2*PageSize, true, nil); err != nil {
		t.Fatal(err)
	}

	// Fault in the backed page; contents must come from the image.
	ok, err := s.HandleFault(0x10004, false)
	if !ok || err != nil {
		t.Fatalf("HandleFault = (%v,%v)", ok, err)
	}
	got, err := s.ReadBytes(0x10000, uint64(len(img)))
	if err != nil || !bytes.Equal(got, img) {
		t.Fatalf("backed page contents %q, want %q (err %v)", got, img, err)
	}

	// Write fault on read-only text is a real fault.
	ok, err = s.HandleFault(0x10008, true)
	if ok || err != nil {
		t.Fatalf("write fault on RO region: (%v,%v), want (false,nil)", ok, err)
	}
	// Fault outside any VMA is a real fault.
	ok, err = s.HandleFault(0x90000, false)
	if ok || err != nil {
		t.Fatalf("fault outside VMAs: (%v,%v), want (false,nil)", ok, err)
	}

	// Demand-zero data, then write through kernel path.
	if err := s.WriteU64(0x20010, 0xFEED); err != nil {
		t.Fatal(err)
	}
	v, err := s.ReadU64(0x20010)
	if err != nil || v != 0xFEED {
		t.Fatalf("ReadU64 = (%#x,%v)", v, err)
	}
	if s.Mapped != 2 { // one text page + one data page
		t.Fatalf("Mapped = %d, want 2 (text page + data page)", s.Mapped)
	}
}

func TestSpaceMappedCount(t *testing.T) {
	p := newPhysT(t, 128)
	s, _ := NewSpace(p)
	s.AddVMA("heap", 0x40000, 8*PageSize, true, nil)
	n, err := s.Prefault(0x40000, 8*PageSize)
	if err != nil || n != 8 {
		t.Fatalf("Prefault = (%d,%v), want (8,nil)", n, err)
	}
	// Second prefault is idempotent.
	n, err = s.Prefault(0x40000, 8*PageSize)
	if err != nil || n != 0 {
		t.Fatalf("re-Prefault = (%d,%v), want (0,nil)", n, err)
	}
	if s.Mapped != 8 || s.PT.MappedPages() != 8 {
		t.Fatalf("Mapped=%d, PT.MappedPages=%d, want 8,8", s.Mapped, s.PT.MappedPages())
	}
}

func TestSpaceVMAOverlapRejected(t *testing.T) {
	p := newPhysT(t, 32)
	s, _ := NewSpace(p)
	if _, err := s.AddVMA("a", 0x10000, 2*PageSize, true, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddVMA("b", 0x11000, PageSize, true, nil); err == nil {
		t.Error("overlapping VMA accepted")
	}
	if _, err := s.AddVMA("c", 0x10001, PageSize, true, nil); err == nil {
		t.Error("unaligned VMA accepted")
	}
	if _, err := s.AddVMA("d", 0x12000, PageSize, true, make([]byte, 2*PageSize)); err == nil {
		t.Error("oversized backing accepted")
	}
}

func TestSpaceCrossPageRW(t *testing.T) {
	p := newPhysT(t, 64)
	s, _ := NewSpace(p)
	s.AddVMA("heap", 0x40000, 4*PageSize, true, nil)
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	base := uint64(0x40000 + PageSize - 100) // straddles boundaries
	if err := s.WriteBytes(base, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBytes(base, uint64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cross-page round trip failed: %v", err)
	}
	// Cross-page u64.
	va := uint64(0x40000 + 2*PageSize - 3)
	if err := s.WriteU64(va, 0x0123456789ABCDEF); err != nil {
		t.Fatal(err)
	}
	v, err := s.ReadU64(va)
	if err != nil || v != 0x0123456789ABCDEF {
		t.Fatalf("cross-page u64 = %#x, %v", v, err)
	}
}

func TestSpaceFind(t *testing.T) {
	p := newPhysT(t, 32)
	s, _ := NewSpace(p)
	s.AddVMA("lo", 0x10000, PageSize, true, nil)
	s.AddVMA("hi", 0x30000, PageSize, true, nil)
	if v := s.Find(0x10000); v == nil || v.Name != "lo" {
		t.Error("Find(lo.start) failed")
	}
	if v := s.Find(0x10FFF); v == nil || v.Name != "lo" {
		t.Error("Find(lo.end-1) failed")
	}
	if v := s.Find(0x11000); v != nil {
		t.Error("Find(lo.end) should be nil")
	}
	if v := s.Find(0x30500); v == nil || v.Name != "hi" {
		t.Error("Find(hi) failed")
	}
	if v := s.Find(0); v != nil {
		t.Error("Find(0) should be nil")
	}
}
