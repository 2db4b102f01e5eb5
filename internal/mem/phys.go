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

// Phys is the machine's physical memory, managed in page-sized frames.
//
// Its geometry is the configured size: Size, InRange and the store
// generations span every frame. Its allocator and its bytes do not.
// The allocator is a watermark, hw, at and above which no frame has
// ever been allocated, and the short list of frames given back below
// it. The bytes, data, back only frames [0, len(data)/PageSize),
// starting at initialBacking and doubling whenever a frame at or above
// the backing first becomes reachable, up to the configured size.
// Frames beyond the backing read as zero — nothing has written them.
//
// One invariant keeps the accessors free of checks: every frame a TLB
// entry, a page walk, a paging-off access or a slice accessor can name
// is already backed. It is set up where frame numbers enter —
// AllocFrame, frameValid (so every page-table walk), Back (the core's
// paging-off accesses), FlipBit, Frame, Bytes, BytesRW, and the decoders
// of a snapshot's frames and TLB entries — never on the ReadU*/WriteU*
// path, which stays a single bounds-checked index.
type Phys struct {
	data      []byte
	free      []uint32 // frames given back, all below hw; popped first
	hw        uint32   // lowest never-allocated frame
	numFrames uint32

	// gens holds one store-generation counter per frame, bumped on every
	// write into the frame. Consumers that cache derived views of a page
	// (the core's compiled superblock pages) snapshot the counter and
	// revalidate against it instead of observing individual stores.
	// It spans the configured memory, so GenPtr's pointers stay valid
	// across growth of the backing.
	//
	// The counters double as the touched set: a frame whose generation
	// is zero has not been written since the array was last all-zero, so
	// snapshot capture and Release visit only the others. "Every
	// mutation bumps the generation" is therefore load-bearing twice
	// over — a write path that skipped the bump would not just leave a
	// stale superblock, it would drop the frame from every capture and
	// leak its content into the array's next tenant. touch pins the top
	// bit, so wrapping cannot bring a written frame back to zero. Only
	// backed frames are ever written, so a nonzero generation always
	// names a backed frame.
	gens []uint32
}

// initialBacking is the backing a memory starts with, in bytes (or its
// whole size, if smaller). No evaluated application reaches a frame
// above 660 (2.6 MiB) at any size or machine shape, so a run that grows
// the backing is one that writes far outside its working set — a
// fault-plane bit flip, or a program built to.
const initialBacking = 4 << 20

// written is the sticky bit of a store generation; the low 31 bits
// count.
const written = 1 << 31

// touch advances frame f's store generation by one store. Branch-free,
// and never 0 after a write: the count wraps under the written bit.
func (p *Phys) touch(f uint64) { p.gens[f] = (p.gens[f] + 1) | written }

// cover makes frame f addressable in data.
func (p *Phys) cover(f uint64) {
	if f >= uint64(len(p.data))>>PageShift {
		p.grow(f)
	}
}

// coverRange covers every frame of [pa, pa+n).
func (p *Phys) coverRange(pa, n uint64) {
	if n != 0 {
		p.cover((pa + n - 1) >> PageShift)
	}
}

// grow doubles the backing until it covers frame f or the whole
// memory, in one step: the larger array is drawn from the recycler, the
// written frames move into it, and the outgrown array, left all-zero by
// the move, is parked for the next machine that grows this far.
func (p *Phys) grow(f uint64) {
	if p.data == nil {
		panic("mem: access to a released Phys")
	}
	n := uint64(len(p.data))
	for n>>PageShift <= f && n < p.Size() {
		n *= 2
	}
	data := dataPool.get(int(min(n, p.Size())))
	p.scrub(data)
	dataPool.put(p.data)
	p.data = data
}

// scrub clears every written frame of the backing, copying it first to
// the same offset of dst unless dst is nil, and so leaves the backing
// all-zero. Only backed frames are ever written, so the generations
// beyond the backing need no visit.
func (p *Phys) scrub(dst []byte) {
	for f, g := range p.gens[:len(p.data)>>PageShift] {
		if g != 0 {
			b := p.frameBytes(uint32(f))
			if dst != nil {
				copy(dst[uint64(f)<<PageShift:], b)
			}
			clear(b)
		}
	}
}

// Backed returns the bytes of host memory backing the simulated memory:
// initialBacking (or the whole memory, if smaller) until a run reaches a
// frame beyond it. It is host-side accounting, never simulated state.
func (p *Phys) Backed() uint64 { return uint64(len(p.data)) }

// recycler parks idle all-zero slices by length. A sync.Pool is emptied
// by the garbage collector, so idle slices are collectable and need no
// retention policy.
type recycler[T byte | uint32] struct {
	pools sync.Map // int → *sync.Pool of *[]T
}

// dataPool holds backings, genPool generation arrays. Lengths are
// exact, so the backing a run ends with depends on the run alone, never
// on what the pool happened to hold.
var (
	dataPool recycler[byte]
	genPool  recycler[uint32]
)

// get returns an all-zero slice of length n, recycled when one is on
// hand.
func (r *recycler[T]) get(n int) []T {
	if pool, ok := r.pools.Load(n); ok {
		if s, ok := pool.(*sync.Pool).Get().(*[]T); ok {
			return *s
		}
	}
	return make([]T, n)
}

// put parks s, which must be all-zero, for the next get of its length.
func (r *recycler[T]) put(s []T) {
	pool, ok := r.pools.Load(len(s))
	if !ok {
		pool, _ = r.pools.LoadOrStore(len(s), new(sync.Pool))
	}
	pool.(*sync.Pool).Put(&s)
}

// Release hands the memory's backing and generations to the recycler
// for the next NewPhys or RestorePhys, clearing only the frames that
// were written; what it parks is about initialBacking, not the
// configured size. It is optional — an unreleased Phys is ordinary
// garbage, and the next machine takes a fresh initialBacking — and
// idempotent. The caller must be done with the memory: a released Phys
// is poisoned, and any later access panics instead of reading or
// corrupting the arrays' next tenant.
func (p *Phys) Release() {
	if p.data == nil {
		return
	}
	p.scrub(nil)
	clear(p.gens[:len(p.data)>>PageShift])
	dataPool.put(p.data)
	genPool.put(p.gens)
	*p = Phys{}
}

// newPhys returns a memory of n frames with an all-zero initial backing
// and generations, none of its frames allocated: frame 0 is reserved,
// so the watermark starts at 1.
func newPhys(n uint32) *Phys {
	size := uint64(n) << PageShift
	return &Phys{
		data:      dataPool.get(int(min(size, initialBacking))),
		hw:        1,
		numFrames: n,
		gens:      genPool.get(int(n)),
	}
}

// NewPhys creates a physical memory of the given size, which must be a
// positive multiple of PageSize. Frame 0 is reserved (never allocated)
// so that a zero page-table entry can never denote a valid mapping.
// Only the first initialBacking bytes are backed; see Phys.
func NewPhys(size uint64) (*Phys, error) {
	if size == 0 || size%PageSize != 0 {
		return nil, fmt.Errorf("mem: physical size %d is not a positive multiple of %d", size, PageSize)
	}
	return newPhys(uint32(size / PageSize)), nil
}

// Size returns the configured physical memory size in bytes.
func (p *Phys) Size() uint64 { return uint64(p.numFrames) << PageShift }

// FreeFrames returns the number of allocatable frames remaining.
func (p *Phys) FreeFrames() int { return len(p.free) + int(p.numFrames-p.hw) }

// AllocFrame allocates one zeroed frame and returns its frame number:
// the frame given back last, if any, else the watermark's, so frames
// are first handed out in ascending order.
func (p *Phys) AllocFrame() (uint32, error) {
	var f uint32
	switch {
	case len(p.free) != 0:
		f = p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
	case p.hw < p.numFrames:
		f = p.hw
		p.hw++
	default:
		return 0, fmt.Errorf("mem: out of physical memory (%d frames)", p.numFrames)
	}
	p.cover(uint64(f))
	clear(p.frameBytes(f))
	p.touch(uint64(f))
	return f, nil
}

// FreeFrame gives an allocated frame back to the allocator.
func (p *Phys) FreeFrame(f uint32) {
	if f == 0 || f >= p.hw {
		panic(fmt.Sprintf("mem: FreeFrame(%d) of a frame never allocated", f))
	}
	p.free = append(p.free, f)
}

// FlipBit flips one bit of physical memory (the fault plane's
// bit-flip primitive). pa is reduced modulo the memory size and bit
// modulo 8, so any 64-bit draw addresses a valid bit deterministically.
// A flip beyond the backing grows it, so a campaign of flips at random
// addresses ends up backing most of the configured memory.
func (p *Phys) FlipBit(pa uint64, bit uint) {
	pa %= p.Size()
	p.cover(pa >> PageShift)
	p.touch(pa >> PageShift)
	p.data[pa] ^= 1 << (bit & 7)
}

// frameValid reports whether f denotes an existing, non-reserved frame,
// backing it if so. Page-table consumers check extracted frame numbers
// against it so a bit flip landing in a page table yields an
// architectural fault instead of an out-of-bounds slice access in the
// simulator — and so every frame a walk can hand to a TLB is backed.
func (p *Phys) frameValid(f uint32) bool {
	if f == 0 || f >= p.numFrames {
		return false
	}
	p.cover(uint64(f))
	return true
}

// InRange reports whether the physical byte range [pa, pa+n) is valid.
func (p *Phys) InRange(pa, n uint64) bool {
	return pa < p.Size() && n <= p.Size()-pa
}

// Back is InRange for a range that is about to be accessed unchecked
// (a paging-off access, a page walk's directory read): when the range
// is valid it also backs every frame it spans.
func (p *Phys) Back(pa, n uint64) bool {
	if !p.InRange(pa, n) {
		return false
	}
	p.coverRange(pa, n)
	return true
}

// Frame returns the byte slice of one whole frame. The slice is
// mutable, so the frame's store generation is bumped conservatively.
func (p *Phys) Frame(f uint32) []byte {
	p.cover(uint64(f))
	p.touch(uint64(f))
	return p.frameBytes(f)
}

// Bytes returns the slice [pa, pa+n) for READ access. The caller must
// ensure the range is valid (typically via a prior translation) and
// page-local. Writers must use BytesRW so the page generation advances.
func (p *Phys) Bytes(pa, n uint64) []byte {
	p.coverRange(pa, n)
	return p.data[pa : pa+n]
}

// BytesRW returns the slice [pa, pa+n) for write access, bumping the
// store generation of every page the range touches.
func (p *Phys) BytesRW(pa, n uint64) []byte {
	p.coverRange(pa, n)
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
