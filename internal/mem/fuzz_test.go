package mem_test

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"misp/internal/mem"
	"misp/internal/snap/wire"
)

// physModel is the reference FuzzPhysBacking holds a Phys to: a flat
// array of the whole configured memory, the allocator's watermark and
// given-back frames, and the frames the operations have reached through
// a growth site — the only ones the unchecked accessors may address.
type physModel struct {
	data    []byte
	hw      uint32
	free    []uint32
	alloced []uint32
	reached map[uint32]bool
}

const fuzzPhysSize = 16 << 20

func newPhysModel() *physModel {
	return &physModel{data: make([]byte, fuzzPhysSize), hw: 1, reached: map[uint32]bool{}}
}

var zeroPage [mem.PageSize]byte

// nonzero lists the frames holding a nonzero byte, ascending.
func (m *physModel) nonzero() []uint32 {
	var out []uint32
	for f := 0; f < len(m.data)/mem.PageSize; f++ {
		if !bytes.Equal(m.data[f*mem.PageSize:(f+1)*mem.PageSize], zeroPage[:]) {
			out = append(out, uint32(f))
		}
	}
	return out
}

// encode is the image a memory in the model's state must encode to.
func (m *physModel) encode() []byte {
	c := wire.NewEncoder(1 << 20)
	n := uint32(len(m.data) / mem.PageSize)
	c.U32(&n)
	c.U32(&m.hw)
	c.Count(len(m.free))
	for i := range m.free {
		c.U32(&m.free[i])
	}
	resident := m.nonzero()
	c.Count(len(resident))
	for _, f := range resident {
		c.U32(&f)
		c.Raw(m.data[f*mem.PageSize : (f+1)*mem.PageSize])
	}
	return c.Bytes()
}

// fuzzOps reads operation arguments off the fuzz input, zero past its
// end.
type fuzzOps []byte

func (b *fuzzOps) u8() uint8 {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

func (b *fuzzOps) u64(n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<8 | uint64(b.u8())
	}
	return v
}

// checkPhys holds p to the model: every byte of the configured memory
// (beyond the backing, zero), the resident list and the encoded image.
func checkPhys(t *testing.T, what string, p *mem.Phys, m *physModel) {
	t.Helper()
	backed := p.Backed()
	for f := range m.reached {
		if uint64(f)*mem.PageSize >= backed {
			t.Fatalf("%s: reached frame %d beyond the %d-byte backing", what, f, backed)
		}
	}
	if !bytes.Equal(p.Bytes(0, backed), m.data[:backed]) {
		t.Fatalf("%s: backed bytes differ from the reference", what)
	}
	want := m.nonzero()
	if len(want) != 0 && uint64(want[len(want)-1])*mem.PageSize >= backed {
		t.Fatalf("%s: the reference holds a nonzero byte beyond the backing", what)
	}
	if got, want := p.FreeFrames(), len(m.free)+int(fuzzPhysSize/mem.PageSize-m.hw); got != want {
		t.Fatalf("%s: FreeFrames() = %d, want %d", what, got, want)
	}
	resident := p.Resident()
	if !slices.Equal(resident, want) {
		t.Fatalf("%s: Resident() = %v, want %v", what, resident, want)
	}
	c := wire.NewEncoder(p.SnapshotSize(len(resident)))
	p.EncodeSnapshot(c, resident)
	if !bytes.Equal(c.Bytes(), m.encode()) {
		t.Fatalf("%s: the encoded image differs from the reference's", what)
	}
}

// FuzzPhysBacking drives a 16 MiB Phys — initial backing 4 MiB — with
// allocation, frees, writes through every mutator, bit flips anywhere,
// release and rebuild, and capture and restore, against a flat
// reference of the whole memory.
func FuzzPhysBacking(f *testing.F) {
	f.Add([]byte{0, 0, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 6, 0, 0, 1})
	f.Add([]byte{2, 0x0F, 0xFF, 0, 0, 0x5A, 5, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xF0, 3, 8, 6, 0, 0, 8})
	f.Add([]byte{0, 0, 0, 5, 0, 0, 0, 0, 0x00, 0xC0, 0x12, 0x34, 1, 8, 1, 0, 3, 0x00, 0x50, 0x00, 0x00, 9, 7, 0, 8, 4, 1, 0, 0, 2})
	f.Add([]byte{3, 0x00, 0x3F, 0xFF, 0xFC, 15, 8, 7, 0, 4, 0, 1, 0, 0, 3, 6, 0, 0, 2})
	f.Add([]byte{6, 0, 0, 0x00, 0xA0, 0x00, 0x00, 8})
	// A written frame, then a flip at 15 MiB that grows the backing in
	// one step: the frame must move into the new backing (checked at the
	// restore), and the outgrown backing, parked by the growth, must be
	// all-zero for the rebuilt memory that takes it.
	f.Add([]byte{2, 0, 5, 0, 16, 0x77, 5, 0, 0, 0, 0, 0, 0xF0, 0, 0, 1, 8})
	f.Add([]byte{2, 0, 5, 0, 16, 0x77, 5, 0, 0, 0, 0, 0, 0xF0, 0, 0, 1, 7})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 512 {
			in = in[:512]
		}
		p, err := mem.NewPhys(fuzzPhysSize)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { p.Release() }()
		m := newPhysModel()
		ops := fuzzOps(in)
		const frames = fuzzPhysSize / mem.PageSize
		pick := func(set []uint32) (uint32, bool) {
			if len(set) == 0 {
				return 0, false
			}
			return set[int(ops.u64(2))%len(set)], true
		}
		reachedList := func() []uint32 {
			out := make([]uint32, 0, len(m.reached))
			for f := range m.reached {
				out = append(out, f)
			}
			slices.Sort(out)
			return out
		}
		for len(ops) > 0 {
			switch ops.u8() % 9 {
			case 0: // AllocFrame
				got, err := p.AllocFrame()
				if len(m.free) == 0 && m.hw == frames {
					if err == nil {
						t.Fatalf("AllocFrame = %d with every frame allocated", got)
					}
					continue
				}
				want := m.hw
				if len(m.free) != 0 {
					want = m.free[len(m.free)-1]
					m.free = m.free[:len(m.free)-1]
				} else {
					m.hw++
				}
				if err != nil || got != want {
					t.Fatalf("AllocFrame = %d, %v; want %d", got, err, want)
				}
				clear(m.data[uint64(got)*mem.PageSize : uint64(got+1)*mem.PageSize])
				m.alloced = append(m.alloced, got)
				m.reached[got] = true
			case 1: // FreeFrame
				if len(m.alloced) == 0 {
					continue
				}
				i := int(ops.u64(2)) % len(m.alloced)
				fr := m.alloced[i]
				m.alloced = slices.Delete(m.alloced, i, i+1)
				p.FreeFrame(fr)
				m.free = append(m.free, fr)
			case 2: // a write through Frame
				fr := uint32(ops.u64(2) % frames)
				off, v := ops.u64(2)%mem.PageSize, ops.u8()
				p.Frame(fr)[off] = v
				m.data[uint64(fr)*mem.PageSize+off] = v
				m.reached[fr] = true
			case 3: // a write through BytesRW, possibly across a page
				pa := ops.u64(4) % fuzzPhysSize
				n := min(1+uint64(ops.u8()%16), fuzzPhysSize-pa)
				b := p.BytesRW(pa, n)
				for i := range b {
					b[i] = byte(pa) + byte(i) + 1
					m.data[pa+uint64(i)] = b[i]
				}
				for fr := pa / mem.PageSize; fr <= (pa+n-1)/mem.PageSize; fr++ {
					m.reached[uint32(fr)] = true
				}
			case 4: // Write* into a reached frame
				fr, ok := pick(reachedList())
				size := uint64(1) << (ops.u8() % 4)
				off := ops.u64(2) % mem.PageSize &^ (size - 1)
				v := ops.u64(8)
				if !ok {
					continue
				}
				pa := uint64(fr)*mem.PageSize + off
				switch size {
				case 1:
					p.WriteU8(pa, uint8(v))
				case 2:
					p.WriteU16(pa, uint16(v))
				case 4:
					p.WriteU32(pa, uint32(v))
				default:
					p.WriteU64(pa, v)
				}
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], v)
				copy(m.data[pa:pa+size], buf[:size])
			case 5: // FlipBit anywhere
				pa, bit := ops.u64(8), uint(ops.u8())
				p.FlipBit(pa, bit)
				pa %= fuzzPhysSize
				m.data[pa] ^= 1 << (bit & 7)
				m.reached[uint32(pa/mem.PageSize)] = true
			case 6: // reads: every width at a reached frame, Bytes anywhere
				fr, ok := pick(reachedList())
				off := ops.u64(2) % (mem.PageSize - 8)
				pa := ops.u64(4) % (fuzzPhysSize - 8)
				if ok {
					base := uint64(fr)*mem.PageSize + off
					ref := m.data[base:]
					if p.ReadU8(base) != ref[0] || p.ReadU16(base) != binary.LittleEndian.Uint16(ref) ||
						p.ReadU32(base) != binary.LittleEndian.Uint32(ref) || p.ReadU64(base) != binary.LittleEndian.Uint64(ref) {
						t.Fatalf("reads at %#x differ from the reference", base)
					}
				}
				if !bytes.Equal(p.Bytes(pa, 8), m.data[pa:pa+8]) {
					t.Fatalf("Bytes(%#x, 8) differs from the reference", pa)
				}
				for fr := pa / mem.PageSize; fr <= (pa+7)/mem.PageSize; fr++ {
					m.reached[uint32(fr)] = true
				}
			case 7: // Release → NewPhys
				p.Release()
				if p, err = mem.NewPhys(fuzzPhysSize); err != nil {
					t.Fatal(err)
				}
				if n := len(p.Resident()); n != 0 {
					t.Fatalf("a rebuilt memory has %d resident frames", n)
				}
				m = newPhysModel()
			case 8: // encode → RestorePhys
				checkPhys(t, "before restore", p, m)
				resident := p.Resident()
				c := wire.NewEncoder(p.SnapshotSize(len(resident)))
				p.EncodeSnapshot(c, resident)
				q, err := mem.RestorePhys(wire.NewDecoder(c.Bytes()), fuzzPhysSize)
				if err != nil {
					t.Fatal(err)
				}
				p.Release()
				p = q
				// Restore backs what it stores; an all-zero frame is
				// reached again the way a run would reach it.
				clear(m.reached)
				for _, fr := range m.nonzero() {
					m.reached[fr] = true
				}
			}
		}
		checkPhys(t, "end", p, m)
	})
}
