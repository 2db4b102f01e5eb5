// Package mem implements the simulated machine's memory system:
// physical memory with a frame allocator, two-level page tables stored
// in (simulated) physical memory and walked by a hardware page walker,
// per-sequencer TLBs, and per-process address spaces with demand-paged
// virtual memory areas.
//
// All sequencers of all MISP processors share one physical memory and,
// within a process, one virtual address space — the architectural
// property (§2.3 of the paper) that preserves the shared-memory
// programming model across OMS and AMSs.
package mem

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Page geometry.
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4 KiB
	PageMask  = PageSize - 1
)

// Phys is the machine's physical memory: a flat byte array managed in
// page-sized frames.
type Phys struct {
	data      []byte
	free      []uint32 // free frame stack (frame numbers)
	numFrames uint32

	// gens holds one store-generation counter per frame, bumped on every
	// write into the frame. Consumers that cache derived views of a page
	// (the core's compiled superblock pages) snapshot the counter and
	// revalidate against it instead of observing individual stores.
	//
	// The counters double as the touched set: a frame whose generation
	// is zero has not been written since the array was last all-zero, so
	// snapshot capture and Release visit only the others. "Every
	// mutation bumps the generation" is therefore load-bearing twice
	// over — a write path that skipped the bump would not just leave a
	// stale superblock, it would drop the frame from every capture and
	// leak its content into the array's next tenant. touch pins the top
	// bit, so wrapping cannot bring a written frame back to zero.
	gens []uint32
}

// written is the sticky bit of a store generation; the low 31 bits
// count.
const written = 1 << 31

// touch advances frame f's store generation by one store. Branch-free,
// and never 0 after a write: the count wraps under the written bit.
func (p *Phys) touch(f uint64) { p.gens[f] = (p.gens[f] + 1) | written }

// arrays is the bulk of a Phys — everything whose size follows the
// configured memory rather than the touched frames. Release parks it
// all-zero; NewPhys and RestorePhys draw from the same store, so a
// grid of short runs clears and faults in PhysMem once, not per run.
type arrays struct {
	data []byte
	gens []uint32
}

// arrayPools maps a memory size to the sync.Pool of its idle arrays.
// A sync.Pool is emptied by the garbage collector, so idle arrays are
// collectable and need no retention policy.
var arrayPools sync.Map // uint64 → *sync.Pool

// acquire returns all-zero arrays for a memory of size bytes, recycled
// when a released set is on hand.
func acquire(size uint64) arrays {
	if pool, ok := arrayPools.Load(size); ok {
		if a, ok := pool.(*sync.Pool).Get().(*arrays); ok {
			return *a
		}
	}
	return arrays{data: make([]byte, size), gens: make([]uint32, size/PageSize)}
}

// Release hands the memory's arrays to the recycler for the next
// NewPhys or RestorePhys of the same size, clearing only the frames
// that were written. It is optional — an unreleased Phys is ordinary
// garbage — and idempotent. The caller must be done with the memory:
// a released Phys is poisoned, and any later access panics instead of
// reading or corrupting the arrays' next tenant.
func (p *Phys) Release() {
	if p.data == nil {
		return
	}
	for f, g := range p.gens {
		if g != 0 {
			clear(p.frameBytes(uint32(f)))
			p.gens[f] = 0
		}
	}
	pool, ok := arrayPools.Load(p.Size())
	if !ok {
		pool, _ = arrayPools.LoadOrStore(p.Size(), new(sync.Pool))
	}
	pool.(*sync.Pool).Put(&arrays{data: p.data, gens: p.gens})
	*p = Phys{}
}

// NewPhys creates a physical memory of the given size, which must be a
// positive multiple of PageSize. Frame 0 is reserved (never allocated)
// so that a zero page-table entry can never denote a valid mapping.
func NewPhys(size uint64) (*Phys, error) {
	if size == 0 || size%PageSize != 0 {
		return nil, fmt.Errorf("mem: physical size %d is not a positive multiple of %d", size, PageSize)
	}
	n := uint32(size / PageSize)
	a := acquire(size)
	p := &Phys{
		data:      a.data,
		numFrames: n,
		free:      make([]uint32, 0, n-1),
		gens:      a.gens,
	}
	// Push frames in reverse so allocation order is ascending.
	for f := n - 1; f >= 1; f-- {
		p.free = append(p.free, f)
	}
	return p, nil
}

// Size returns the physical memory size in bytes.
func (p *Phys) Size() uint64 { return uint64(len(p.data)) }

// FreeFrames returns the number of allocatable frames remaining.
func (p *Phys) FreeFrames() int { return len(p.free) }

// AllocFrame allocates one zeroed frame and returns its frame number.
func (p *Phys) AllocFrame() (uint32, error) {
	if len(p.free) == 0 {
		return 0, fmt.Errorf("mem: out of physical memory (%d frames)", p.numFrames)
	}
	f := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	base := uint64(f) << PageShift
	clear(p.data[base : base+PageSize])
	p.touch(uint64(f))
	return f, nil
}

// FreeFrame returns a frame to the allocator.
func (p *Phys) FreeFrame(f uint32) {
	if f == 0 || f >= p.numFrames {
		panic(fmt.Sprintf("mem: FreeFrame(%d) out of range", f))
	}
	p.free = append(p.free, f)
}

// FlipBit flips one bit of physical memory (the fault plane's
// bit-flip primitive). pa is reduced modulo the memory size and bit
// modulo 8, so any 64-bit draw addresses a valid bit deterministically.
func (p *Phys) FlipBit(pa uint64, bit uint) {
	pa %= uint64(len(p.data))
	p.touch(pa >> PageShift)
	p.data[pa] ^= 1 << (bit & 7)
}

// frameValid reports whether f denotes an existing, non-reserved frame.
// Page-table consumers check extracted frame numbers against it so a
// bit flip landing in a page table yields an architectural fault
// instead of an out-of-bounds slice access in the simulator.
func (p *Phys) frameValid(f uint32) bool { return f != 0 && f < p.numFrames }

// InRange reports whether the physical byte range [pa, pa+n) is valid.
func (p *Phys) InRange(pa, n uint64) bool {
	return pa < uint64(len(p.data)) && n <= uint64(len(p.data))-pa
}

// Frame returns the byte slice of one whole frame. The slice is
// mutable, so the frame's store generation is bumped conservatively.
func (p *Phys) Frame(f uint32) []byte {
	p.touch(uint64(f))
	base := uint64(f) << PageShift
	return p.data[base : base+PageSize]
}

// Bytes returns the slice [pa, pa+n) for READ access. The caller must
// ensure the range is valid (typically via a prior translation) and
// page-local. Writers must use BytesRW so the page generation advances.
func (p *Phys) Bytes(pa, n uint64) []byte { return p.data[pa : pa+n] }

// BytesRW returns the slice [pa, pa+n) for write access, bumping the
// store generation of every page the range touches.
func (p *Phys) BytesRW(pa, n uint64) []byte {
	for f := pa >> PageShift; f <= (pa+n-1)>>PageShift; f++ {
		p.touch(f)
	}
	return p.data[pa : pa+n]
}

// Gen returns the store-generation counter of the page containing pa.
func (p *Phys) Gen(pa uint64) uint32 { return p.gens[pa>>PageShift] }

// GenPtr returns a stable pointer to that counter, letting a cache
// watch the page for stores with a single load instead of a call.
func (p *Phys) GenPtr(pa uint64) *uint32 { return &p.gens[pa>>PageShift] }

// ReadU8 reads one byte of physical memory.
func (p *Phys) ReadU8(pa uint64) uint8 { return p.data[pa] }

// WriteU8 writes one byte of physical memory.
func (p *Phys) WriteU8(pa uint64, v uint8) {
	p.touch(pa >> PageShift)
	p.data[pa] = v
}

// ReadU16 reads a little-endian uint16.
func (p *Phys) ReadU16(pa uint64) uint16 { return binary.LittleEndian.Uint16(p.data[pa:]) }

// WriteU16 writes a little-endian uint16.
func (p *Phys) WriteU16(pa uint64, v uint16) {
	p.touch(pa >> PageShift)
	binary.LittleEndian.PutUint16(p.data[pa:], v)
}

// ReadU32 reads a little-endian uint32.
func (p *Phys) ReadU32(pa uint64) uint32 { return binary.LittleEndian.Uint32(p.data[pa:]) }

// WriteU32 writes a little-endian uint32.
func (p *Phys) WriteU32(pa uint64, v uint32) {
	p.touch(pa >> PageShift)
	binary.LittleEndian.PutUint32(p.data[pa:], v)
}

// ReadU64 reads a little-endian uint64.
func (p *Phys) ReadU64(pa uint64) uint64 { return binary.LittleEndian.Uint64(p.data[pa:]) }

// WriteU64 writes a little-endian uint64.
func (p *Phys) WriteU64(pa uint64, v uint64) {
	p.touch(pa >> PageShift)
	binary.LittleEndian.PutUint64(p.data[pa:], v)
}
