package mem

import (
	"encoding/binary"
	"fmt"
	"sort"

	"misp/internal/snap/wire"
)

// Snapshot codecs for the memory system. The encoding is content
// driven: physical memory stores exactly the frames that contain any
// nonzero byte (page tables included — they live in simulated physical
// memory), and restore takes an all-zero initial backing and copies
// only the stored frames in, growing the backing to cover each. The
// encoded frame images are the shared, immutable side of the snapshot
// plane's copy-on-write story: every fork decodes against the same
// buffer and owns a private backing.
//
// Neither direction reads memory the machine never wrote: a frame's
// store generation (Phys.gens) is nonzero exactly when it has been
// written since the array was all-zero, so capture content-tests only
// those frames, and restore marks each frame it fills so a capture of
// the fork stays complete. Restore backs what a restored machine can
// name without a page walk: the stored frames here, and each valid TLB
// entry's frame as TLB.Snapshot decodes it (the core's fetch cache does
// the same through Back); a page-table frame is backed by the walk that
// reaches it (frameValid). Neither direction visits a frame beyond the
// backing, which follows the highest frame a run reached, and the image
// holds nothing sized by the configured memory: the allocator is coded
// as its watermark and the frames given back below it.
//
// Deliberately NOT captured (host-side caches, rebuilt or re-warmed
// after restore):
//   - the generation values themselves: beyond zero/nonzero they exist
//     only to invalidate host-side derived caches (fetch windows and
//     compiled superblock pages), all of which are reset on restore.

// Resident returns, in ascending order, the frames a snapshot stores:
// those written since the array was all-zero that now hold a nonzero
// byte. An allocated frame that still reads all-zero is left out; a
// freed frame with stale content is kept (restore must reproduce what
// a later read of it would see).
func (p *Phys) Resident() []uint32 {
	var out []uint32
	for f, g := range p.gens[:len(p.data)>>PageShift] {
		if g != 0 && !zeroFrame(p.frameBytes(uint32(f))) {
			out = append(out, uint32(f))
		}
	}
	return out
}

// SnapshotSize returns the exact number of bytes EncodeSnapshot writes
// for a resident list of the given length.
func (p *Phys) SnapshotSize(resident int) int {
	return 4 + 4 + 8 + 4*len(p.free) + 8 + resident*(4+PageSize)
}

// EncodeSnapshot writes the physical memory. resident is the frame list
// from Resident, which the caller obtains once so it can size the
// encoder first.
func (p *Phys) EncodeSnapshot(c *wire.Codec, resident []uint32) {
	c.U32(&p.numFrames)
	p.snapshot(c, resident)
}

// RestorePhys rebuilds a physical memory from its snapshot. size is the
// configured physical memory size, validated against the encoded frame
// count before any array is taken. The backing starts at its initial
// size and grows to cover the highest stored frame.
func RestorePhys(c *wire.Codec, size uint64) (*Phys, error) {
	var n uint32
	c.U32(&n)
	if err := c.Err(); err != nil {
		return nil, err
	}
	if size == 0 || size%PageSize != 0 || uint64(n) != size/PageSize {
		return nil, fmt.Errorf("mem: snapshot has %d frames, config wants %d bytes", n, size)
	}
	p := newPhys(n)
	p.snapshot(c, nil)
	if err := c.Err(); err != nil {
		p.Release()
		return nil, err
	}
	return p, nil
}

// snapshot codes what follows the frame count: the allocator (the
// watermark, then the given-back frames in order — allocation order is
// architectural), then the resident frames, each as its number and page
// image. An encoder takes the frames from resident; a decoder marks
// each frame it fills as touched — to the touched set a restored frame
// is a written frame.
func (p *Phys) snapshot(c *wire.Codec, resident []uint32) {
	c.U32(&p.hw)
	if c.Decoding() && (p.hw == 0 || p.hw > p.numFrames) {
		c.Fail(fmt.Errorf("mem: snapshot watermark %d outside [1, %d]", p.hw, p.numFrames))
	}
	wire.Slice(c, &p.free, func(f *uint32) {
		c.U32(f)
		if c.Decoding() && (*f == 0 || *f >= p.hw) {
			c.Fail(fmt.Errorf("mem: snapshot given-back frame %d not below the watermark %d", *f, p.hw))
		}
	})
	n := c.Count(len(resident))
	for i := 0; i < n; i++ {
		var f uint32
		if !c.Decoding() {
			f = resident[i]
		}
		c.U32(&f)
		if c.Decoding() {
			if f >= p.numFrames {
				c.Fail(fmt.Errorf("mem: snapshot resident frame %d out of range", f))
			}
			if c.Err() != nil {
				return
			}
			p.cover(uint64(f))
			p.touch(uint64(f))
		}
		c.Raw(p.frameBytes(f))
	}
}

// frameBytes returns frame f's image without touching generations.
func (p *Phys) frameBytes(f uint32) []byte {
	base := uint64(f) << PageShift
	return p.data[base : base+PageSize]
}

// zeroFrame reports whether every byte of a frame image is zero.
func zeroFrame(b []byte) bool {
	for len(b) >= 8 {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
		b = b[8:]
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Snapshot codes the TLB: every entry, valid or not (the direct-mapped
// slot position is architectural), then the statistics counters. The
// stats feed Table 1, so a restore must continue them exactly where the
// capture left off. Decoding checks each valid entry's frame against p,
// the restored memory, which backs it: a hit goes straight to the
// unchecked accessors, and the frame may be one the image omits (an
// allocated frame still all-zero, or one a corrupted PTE named).
func (t *TLB) Snapshot(c *wire.Codec, p *Phys) {
	for i := range t.entries {
		e := &t.entries[i]
		c.U32(&e.vpn)
		c.U32(&e.pfn)
		c.Bool(&e.write)
		if c.Decoding() && e.vpn != 0 && !p.frameValid(e.pfn) {
			c.Fail(fmt.Errorf("mem: snapshot TLB entry %d names frame %d", i, e.pfn))
		}
	}
	c.U64(&t.Hits)
	c.U64(&t.Misses)
	c.U64(&t.Flushes)
	c.U64(&t.PermMisses)
}

// SnapshotSpace codes an address space: its page-table root, break,
// mapped-page count and VMA list, with backing coding each VMA's backing
// slice (only the owner of the program image can name one). Decoding
// ignores s and returns a new space over p that reattaches the page
// directory already living in the restored memory: no frame is allocated
// and no page is mapped.
func SnapshotSpace(c *wire.Codec, s *Space, p *Phys, backing func(*VMA)) *Space {
	if c.Decoding() {
		s = &Space{Phys: p, PT: &PageTable{Phys: p}}
	}
	c.U32(&s.PT.Root)
	c.U64(&s.Brk)
	c.U64(&s.Mapped)
	wire.Slice(c, &s.vmas, func(pv **VMA) {
		if c.Decoding() {
			*pv = new(VMA)
		}
		v := *pv
		c.String(&v.Name)
		c.U64(&v.Start)
		c.U64(&v.End)
		c.Bool(&v.Writable)
		backing(v)
	})
	if c.Decoding() {
		if !p.frameValid(s.PT.Root) {
			c.Fail(fmt.Errorf("mem: snapshot page-table root %d out of range", s.PT.Root))
		}
		if !sort.SliceIsSorted(s.vmas, func(i, j int) bool { return s.vmas[i].Start < s.vmas[j].Start }) {
			c.Fail(fmt.Errorf("mem: snapshot VMA list out of order"))
		}
	}
	return s
}
