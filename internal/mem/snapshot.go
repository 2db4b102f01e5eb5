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
// memory), and restore takes an all-zero flat array and copies only the
// stored frames in. The encoded frame images are the shared, immutable
// side of the snapshot plane's copy-on-write story: every fork decodes
// against the same buffer and owns a private array.
//
// Neither direction reads memory the machine never wrote: a frame's
// store generation (Phys.gens) is nonzero exactly when it has been
// written since the array was all-zero, so capture content-tests only
// those frames, and restore marks each frame it fills so a capture of
// the fork stays complete. What remains proportional to configured
// memory is 4 bytes per frame twice over: the generation scan and the
// free stack.
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
	for f, g := range p.gens {
		if g != 0 && !zeroFrame(p.frameBytes(uint32(f))) {
			out = append(out, uint32(f))
		}
	}
	return out
}

// SnapshotSize returns the exact number of bytes EncodeSnapshot writes
// for a resident list of the given length.
func (p *Phys) SnapshotSize(resident int) int {
	return 4 + 8 + 4*len(p.free) + 8 + resident*(4+PageSize)
}

// EncodeSnapshot writes the physical memory: frame count, the free
// stack verbatim (allocation order is architectural — AllocFrame pops
// deterministically), and the resident frames, which the caller
// obtains from Resident (once, so it can size the writer first).
func (p *Phys) EncodeSnapshot(w *wire.Writer, resident []uint32) {
	w.U32(p.numFrames)
	w.U64(uint64(len(p.free)))
	for _, f := range p.free {
		w.U32(f)
	}
	w.U64(uint64(len(resident)))
	for _, f := range resident {
		w.U32(f)
		w.Raw(p.frameBytes(f))
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

// RestorePhys rebuilds a physical memory from its snapshot. size is the
// configured physical memory size and is validated against the encoded
// frame count.
func RestorePhys(r *wire.Reader, size uint64) (*Phys, error) {
	numFrames := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if size == 0 || size%PageSize != 0 || uint64(numFrames) != size/PageSize {
		return nil, fmt.Errorf("mem: snapshot has %d frames, config wants %d bytes", numFrames, size)
	}
	nFree := r.Len(int(numFrames))
	if nFree < 0 {
		return nil, r.Err()
	}
	free := make([]uint32, nFree)
	for i := range free {
		f := r.U32()
		if f == 0 || f >= numFrames {
			return nil, fmt.Errorf("mem: snapshot free frame %d out of range", f)
		}
		free[i] = f
	}
	resident := r.Len(int(numFrames))
	if resident < 0 {
		return nil, r.Err()
	}
	a := acquire(size)
	p := &Phys{data: a.data, numFrames: numFrames, free: free, gens: a.gens}
	if err := p.restoreFrames(r, resident); err != nil {
		p.Release()
		return nil, err
	}
	return p, nil
}

// restoreFrames copies the encoded resident frames in, marking each as
// touched: to the touched set a restored frame is a written frame.
func (p *Phys) restoreFrames(r *wire.Reader, resident int) error {
	for i := 0; i < resident; i++ {
		f := r.U32()
		if r.Err() != nil {
			return r.Err()
		}
		if f >= p.numFrames {
			return fmt.Errorf("mem: snapshot resident frame %d out of range", f)
		}
		p.touch(uint64(f))
		if err := r.CopyInto(p.frameBytes(f)); err != nil {
			return err
		}
	}
	return r.Err()
}

// EncodeSnapshot writes the TLB: all entries (valid or not — the
// direct-mapped slot position is architectural) plus the statistics
// counters. The stats feed Table 1, so restore must
// continue them exactly where the capture left off.
func (t *TLB) EncodeSnapshot(w *wire.Writer) {
	for i := range t.entries {
		e := &t.entries[i]
		w.U32(e.vpn)
		w.U32(e.pfn)
		w.Bool(e.write)
	}
	w.U64(t.Hits)
	w.U64(t.Misses)
	w.U64(t.Flushes)
	w.U64(t.PermMisses)
}

// DecodeSnapshot restores the TLB in place.
func (t *TLB) DecodeSnapshot(r *wire.Reader) {
	for i := range t.entries {
		t.entries[i] = tlbEntry{vpn: r.U32(), pfn: r.U32(), write: r.Bool()}
	}
	t.Hits = r.U64()
	t.Misses = r.U64()
	t.Flushes = r.U64()
	t.PermMisses = r.U64()
}

// RestoreSpace reassembles an address space whose page tables already
// live in the restored physical memory: no frames are allocated and no
// pages are mapped — root simply reattaches the existing page
// directory. vmas is the decoded region list (kept sorted by start, as
// AddVMA maintains it).
func RestoreSpace(p *Phys, root uint32, brk, mapped uint64, vmas []*VMA) (*Space, error) {
	if !p.frameValid(root) {
		return nil, fmt.Errorf("mem: snapshot page-table root %d out of range", root)
	}
	sorted := sort.SliceIsSorted(vmas, func(i, j int) bool { return vmas[i].Start < vmas[j].Start })
	if !sorted {
		return nil, fmt.Errorf("mem: snapshot VMA list out of order")
	}
	return &Space{
		Phys:   p,
		PT:     &PageTable{Phys: p, Root: root},
		vmas:   vmas,
		Brk:    brk,
		Mapped: mapped,
	}, nil
}
