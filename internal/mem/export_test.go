package mem

import "misp/internal/snap/wire"

// EncodeSnapshotFullScan is the physical-memory encoder as it stood
// before capture followed the touched set: it content-tests every
// frame of the configured memory, twice, and knows nothing of store
// generations. A frame beyond the backing reads as zero. The oracle
// tests require EncodeSnapshot to produce the same bytes.
func (p *Phys) EncodeSnapshotFullScan(c *wire.Codec) {
	c.U32(&p.numFrames)
	c.U32(&p.hw)
	c.Count(len(p.free))
	for i := range p.free {
		c.U32(&p.free[i])
	}
	var resident int
	for f := uint32(0); f < p.numFrames; f++ {
		if !zeroFrame(p.frameOrZero(f)) {
			resident++
		}
	}
	c.Count(resident)
	for f := uint32(0); f < p.numFrames; f++ {
		b := p.frameOrZero(f)
		if zeroFrame(b) {
			continue
		}
		c.U32(&f)
		c.Raw(b)
	}
}

var zeroPage [PageSize]byte

// frameOrZero is frame f's image, all-zero when the backing does not
// reach it, read without backing it.
func (p *Phys) frameOrZero(f uint32) []byte {
	if uint64(f) >= p.Backed()>>PageShift {
		return zeroPage[:]
	}
	return p.frameBytes(f)
}

// SetGen overwrites frame f's store generation, to stage a counter at
// its wrap point.
func (p *Phys) SetGen(f, g uint32) { p.gens[f] = g }

// Arrays returns the live backing arrays, so a test can inspect them
// after Release has detached them from p.
func (p *Phys) Arrays() ([]byte, []uint32) { return p.data, p.gens }
