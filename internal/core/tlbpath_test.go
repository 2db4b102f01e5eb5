package core

import (
	"testing"

	"misp/internal/isa"
	"misp/internal/mem"
)

// TLB-path invalidation regressions (the TestDataWindow* names date
// from the data-side cache these edges were first pinned on): every
// architectural invalidation that empties the TLB — a CR3 write,
// INVLPG — must stop loads from being served by a stale translation, a
// store to a read-only page must take a permission miss and fault, and
// a store by one sequencer must be visible to every other. The tests
// drive loadN/storeN directly against hand-built page tables, on a
// machine of each loop flavor, so each edge is exercised in isolation;
// they assert architectural outcomes plus the TLB counters Table 1 is
// built from.

// tlbHarness is a machine with hand-rolled paging on the OMS: va maps
// to frame f1 through table pt.
type tlbHarness struct {
	m   *Machine
	oms *Sequencer
	pt  *mem.PageTable
	va  uint64
	f1  uint32
}

// forBothLoops runs fn against a fresh harness on the legacy loop's
// machine and on the fast loop's.
func forBothLoops(t *testing.T, flags uint32, fn func(t *testing.T, h *tlbHarness)) {
	for _, legacy := range []bool{true, false} {
		name := "fast"
		if legacy {
			name = "legacy"
		}
		t.Run(name, func(t *testing.T) {
			cfg := testCfg(1)
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.Oracle = legacy
			pt, err := mem.NewPageTable(m.Phys)
			if err != nil {
				t.Fatal(err)
			}
			f1, err := m.Phys.AllocFrame()
			if err != nil {
				t.Fatal(err)
			}
			va := uint64(0x0040_0000)
			if err := pt.Map(va, f1, flags); err != nil {
				t.Fatal(err)
			}
			oms := m.Procs[0].OMS()
			oms.CRs[isa.CR3] = pt.RootPA()
			oms.CRs[isa.CR0] |= isa.CR0Paging
			fn(t, &tlbHarness{m: m, oms: oms, pt: pt, va: va, f1: f1})
		})
	}
}

// load8 reads 8 bytes at va and fails the test on a fault.
func (h *tlbHarness) load8(t *testing.T, va uint64) uint64 {
	t.Helper()
	v, f := h.m.loadN(h.oms, va, 8)
	if f != nil {
		t.Fatalf("load at %#x faulted: %+v", va, f)
	}
	return v
}

// mustMiss asserts the next OMS load of va walks the page table: it
// returns want, charges WalkCost, and counts one cold TLB miss.
func (h *tlbHarness) mustMiss(t *testing.T, va uint64, want uint64) {
	t.Helper()
	clock, tlb := h.oms.Clock, h.oms.TLB
	if v := h.load8(t, va); v != want {
		t.Fatalf("load = %#x, want %#x", v, want)
	}
	if h.oms.Clock != clock+mem.WalkCost {
		t.Fatalf("miss charged %d cycles, want WalkCost %d", h.oms.Clock-clock, mem.WalkCost)
	}
	if h.oms.TLB.Misses != tlb.Misses+1 || h.oms.TLB.Hits != tlb.Hits {
		t.Fatalf("miss counted hits %d->%d misses %d->%d, want one miss",
			tlb.Hits, h.oms.TLB.Hits, tlb.Misses, h.oms.TLB.Misses)
	}
}

// mustHit asserts the next OMS load of va is served by the TLB: it
// returns want, charges no cycles, and counts one hit and no miss.
func (h *tlbHarness) mustHit(t *testing.T, va uint64, want uint64) {
	t.Helper()
	clock, tlb := h.oms.Clock, h.oms.TLB
	if v := h.load8(t, va); v != want {
		t.Fatalf("load = %#x, want %#x", v, want)
	}
	if h.oms.Clock != clock {
		t.Fatalf("TLB hit charged %d cycles", h.oms.Clock-clock)
	}
	if h.oms.TLB.Hits != tlb.Hits+1 || h.oms.TLB.Misses != tlb.Misses {
		t.Fatalf("hit counted hits %d->%d misses %d->%d, want one hit",
			tlb.Hits, h.oms.TLB.Hits, tlb.Misses, h.oms.TLB.Misses)
	}
}

// exec0 retires one privileged instruction on the OMS at ring 0.
func (h *tlbHarness) exec0(t *testing.T, in isa.Instr) {
	t.Helper()
	ring := h.oms.Ring
	h.oms.Ring = isa.Ring0
	if f := h.m.execInstr(h.oms, in); f != nil {
		t.Fatalf("%v faulted: %+v", in.Op, f)
	}
	h.oms.Ring = ring
}

// TestDataWindowCR3Remap: after a CR3 write (MOVTCR's NotifyCRWrite
// path), a load of the same VA must observe the NEW address space, not
// the frame the old translation pointed at.
func TestDataWindowCR3Remap(t *testing.T) {
	forBothLoops(t, mem.PTEPresent|mem.PTEWritable|mem.PTEUser, func(t *testing.T, h *tlbHarness) {
		pt2, err := mem.NewPageTable(h.m.Phys)
		if err != nil {
			t.Fatal(err)
		}
		f2, err := h.m.Phys.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := pt2.Map(h.va, f2, mem.PTEPresent|mem.PTEWritable|mem.PTEUser); err != nil {
			t.Fatal(err)
		}
		h.m.Phys.WriteU64(uint64(h.f1)<<mem.PageShift, 0x1111)
		h.m.Phys.WriteU64(uint64(f2)<<mem.PageShift, 0x2222)

		h.mustMiss(t, h.va, 0x1111)
		h.mustHit(t, h.va, 0x1111)

		flushes := h.oms.TLB.Flushes
		h.oms.Regs[1] = pt2.RootPA()
		h.exec0(t, isa.Instr{Op: isa.OpMovtcr, Rs1: 1, Imm: int32(isa.CR3)})
		if h.oms.TLB.Flushes != flushes+1 {
			t.Fatalf("CR3 write flushed the TLB %d times, want 1", h.oms.TLB.Flushes-flushes)
		}
		h.mustMiss(t, h.va, 0x2222)
		h.mustHit(t, h.va, 0x2222)
	})
}

// TestDataWindowInvlpg: INVLPG on a resident page must force the next
// access back through the page walk; INVLPG on an unrelated,
// non-resident page must leave the resident translation alone.
func TestDataWindowInvlpg(t *testing.T) {
	forBothLoops(t, mem.PTEPresent|mem.PTEWritable|mem.PTEUser, func(t *testing.T, h *tlbHarness) {
		h.m.Phys.WriteU64(uint64(h.f1)<<mem.PageShift, 0xABCD)
		h.mustMiss(t, h.va, 0xABCD)

		// INVLPG of a page that was never mapped evicts nothing.
		h.oms.Regs[1] = h.va + 64*mem.PageSize
		h.exec0(t, isa.Instr{Op: isa.OpInvlpg, Rs1: 1})
		h.mustHit(t, h.va, 0xABCD)

		// Unmap the page, then INVLPG it. The next access must walk the
		// table and fault — a stale translation would keep serving the old
		// frame.
		h.pt.Unmap(h.va)
		h.oms.Regs[1] = h.va
		h.exec0(t, isa.Instr{Op: isa.OpInvlpg, Rs1: 1})
		misses := h.oms.TLB.Misses
		if _, f := h.m.loadN(h.oms, h.va, 8); f == nil {
			t.Fatal("load after unmap+INVLPG did not fault (stale translation?)")
		} else if f.trap != isa.TrapPageFault || PFIsWrite(f.info) || PFAddr(f.info) != h.va {
			t.Fatalf("fault = %+v, want read page fault at %#x", f, h.va)
		}
		if h.oms.TLB.Misses != misses+1 {
			t.Fatalf("faulting load counted %d TLB misses, want 1", h.oms.TLB.Misses-misses)
		}
	})
}

// TestDataWindowReadOnlyStore: a store to a page resident read-only in
// the TLB must count a permission miss (Table 1's PermMiss), not a cold
// miss, and fault as a write page fault without modifying the page.
func TestDataWindowReadOnlyStore(t *testing.T) {
	forBothLoops(t, mem.PTEPresent|mem.PTEUser, func(t *testing.T, h *tlbHarness) { // no PTEWritable
		h.m.Phys.WriteU64(uint64(h.f1)<<mem.PageShift, 0x55)
		h.mustMiss(t, h.va, 0x55) // caches the translation read-only
		h.mustHit(t, h.va, 0x55)

		tlb := h.oms.TLB
		f := h.m.storeN(h.oms, h.va, 8, 0x66)
		if f == nil {
			t.Fatal("store to read-only page did not fault")
		}
		if f.trap != isa.TrapPageFault || !PFIsWrite(f.info) || PFAddr(f.info) != h.va {
			t.Fatalf("fault = %+v, want write page fault at %#x", f, h.va)
		}
		if h.oms.TLB.PermMisses != tlb.PermMisses+1 || h.oms.TLB.Misses != tlb.Misses || h.oms.TLB.Hits != tlb.Hits {
			t.Fatalf("denied store counted perm %d->%d misses %d->%d hits %d->%d, want one PermMiss",
				tlb.PermMisses, h.oms.TLB.PermMisses, tlb.Misses, h.oms.TLB.Misses, tlb.Hits, h.oms.TLB.Hits)
		}
		// The denied store must not have modified the page.
		h.mustHit(t, h.va, 0x55)
	})
}

// TestDataWindowCrossSequencerStore: a store by one sequencer must be
// observed by another sequencer's TLB-hit load of the same page, and
// must bump the frame's store generation (compiled code pages key on
// it) once per store.
func TestDataWindowCrossSequencerStore(t *testing.T) {
	forBothLoops(t, mem.PTEPresent|mem.PTEWritable|mem.PTEUser, func(t *testing.T, h *tlbHarness) {
		ams := h.m.Procs[0].Seqs[1]
		ams.CRs[isa.CR3] = h.pt.RootPA()
		ams.CRs[isa.CR0] |= isa.CR0Paging

		base := uint64(h.f1) << mem.PageShift
		h.m.Phys.WriteU64(base, 0xAAAA)
		h.mustMiss(t, h.va, 0xAAAA) // the OMS now holds the translation

		// The first AMS store walks the table on the AMS's own TLB; the
		// second hits it. Both must be visible to the OMS through its
		// resident translation and advance the store generation.
		gen := h.m.Phys.Gen(base)
		if f := h.m.storeN(ams, h.va, 8, 0xBBBB); f != nil {
			t.Fatalf("AMS store faulted: %+v", f)
		}
		if ams.TLB.Misses != 1 || ams.TLB.Hits != 0 {
			t.Fatalf("first AMS store: hits %d misses %d, want 0/1", ams.TLB.Hits, ams.TLB.Misses)
		}
		h.mustHit(t, h.va, 0xBBBB)
		if f := h.m.storeN(ams, h.va, 8, 0xCCCC); f != nil {
			t.Fatalf("second AMS store faulted: %+v", f)
		}
		if ams.TLB.Misses != 1 || ams.TLB.Hits != 1 {
			t.Fatalf("second AMS store: hits %d misses %d, want 1/1", ams.TLB.Hits, ams.TLB.Misses)
		}
		h.mustHit(t, h.va, 0xCCCC)
		if got := h.m.Phys.Gen(base); got != gen+2 {
			t.Fatalf("store generation advanced %d times, want 2 (compiled pages would miss invalidations)", got-gen)
		}
	})
}
