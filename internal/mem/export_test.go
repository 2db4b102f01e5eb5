package mem

import "misp/internal/snap/wire"

// EncodeSnapshotFullScan is the physical-memory encoder as it stood
// before capture followed the touched set: it content-tests every
// frame of the configured memory, twice, and knows nothing of store
// generations. The oracle tests require EncodeSnapshot to produce the
// same bytes.
func (p *Phys) EncodeSnapshotFullScan(w *wire.Writer) {
	w.U32(p.numFrames)
	w.U64(uint64(len(p.free)))
	for _, f := range p.free {
		w.U32(f)
	}
	var resident uint64
	for f := uint32(0); f < p.numFrames; f++ {
		if !zeroFrame(p.frameBytes(f)) {
			resident++
		}
	}
	w.U64(resident)
	for f := uint32(0); f < p.numFrames; f++ {
		b := p.frameBytes(f)
		if zeroFrame(b) {
			continue
		}
		w.U32(f)
		w.Raw(b)
	}
}

// SetGen overwrites frame f's store generation, to stage a counter at
// its wrap point.
func (p *Phys) SetGen(f, g uint32) { p.gens[f] = g }

// Arrays returns the live backing arrays, so a test can inspect them
// after Release has detached them from p.
func (p *Phys) Arrays() ([]byte, []uint32) { return p.data, p.gens }
