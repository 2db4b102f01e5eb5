package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"misp/internal/isa"
)

// Directed tests for the counted-spin skip (superblock.go, invariant 6): a
// pause loop whose only carried state is a memory counter — the shape of
// the runtime's spin-then-yield idle loop — retires many iterations at
// once, and the machine must still be exactly where the legacy loop has
// it: when the counter reaches its threshold or an equality branch on it
// flips inside a skipped span, when a peer stores a word the loop watches
// or loads the counter itself mid-span, and when a pause or a cycle limit
// lands inside a span. Every row also checks that the fast loop made a
// counted skip, so none passes by never reaching the rule it tests.

// countLoop counts the word at [r1] up while the word at [r2] still holds
// r5 — a TLB hit after the first pass — and resets it after r3 passes,
// the yield's stand-in; br is the branch on the counter, taken to spin on.
// A release sends the sequencer to count in r9 for ever.
func countLoop(br isa.Op) []isa.Instr {
	return []isa.Instr{
		{Op: isa.OpLdd, Rd: 6, Rs1: 2},
		{Op: isa.OpBne, Rs1: 6, Rs2: 5, Imm: 9 * isa.WordSize},
		{Op: isa.OpLdd, Rd: 4, Rs1: 1},
		{Op: isa.OpAddi, Rd: 4, Rs1: 4, Imm: 1},
		{Op: isa.OpStd, Rd: 4, Rs1: 1},
		{Op: br, Rs1: 4, Rs2: 3, Imm: 3 * isa.WordSize},
		{Op: isa.OpStd, Rd: 0, Rs1: 1},
		{Op: isa.OpAddi, Rd: 7, Rs1: 7, Imm: 1},
		{Op: isa.OpPause},
		{Op: isa.OpJmp, Imm: -9 * isa.WordSize},
		{Op: isa.OpAddi, Rd: 9, Rs1: 9, Imm: 1},
		{Op: isa.OpXori, Rd: 10, Rs1: 9, Imm: 0x55},
		{Op: isa.OpJmp, Imm: -2 * isa.WordSize},
	}
}

// countWord is sequencer id's counter: one granule each, on the first
// operand page away from the words uopMachine patterns, so it starts at 0.
func countWord(id int) uint64 { return uopData + 128 + 64*uint64(id) }

// countOn starts s on countLoop with its own counter, the watched word
// unreleased and threshold.
func countOn(s *Sequencer, threshold uint64) {
	s.Regs[0], s.Regs[1], s.Regs[2], s.Regs[3] = 0, countWord(s.ID), waveShared, threshold
	s.Regs[5] = uopPattern(waveShared)
}

// countPeers is a draw's program with sequencer 0 on lead, padded to
// wavePeerSlot, and its peers on countLoop(isa.OpBlt) with threshold.
func countPeers(lead []isa.Instr, threshold uint64, init func(*Sequencer)) ([]isa.Instr, func(*Sequencer)) {
	code := make([]isa.Instr, wavePeerSlot, wavePeerSlot+13)
	copy(code, lead)
	base := waveInit(uopCode + wavePeerSlot*isa.WordSize)
	return append(code, countLoop(isa.OpBlt)...), func(s *Sequencer) {
		base(s)
		countOn(s, threshold)
		init(s)
	}
}

// countDelay is sequencer 0's program: a countdown of n in r9 (two cycles
// a pass; countOn leaves r0 0), then tail. It fits in front of
// wavePeerSlot whatever n is.
func countDelay(n int, tail ...isa.Instr) []isa.Instr {
	return append([]isa.Instr{
		{Op: isa.OpLdi, Rd: 9, Imm: int32(n)},
		{Op: isa.OpAddi, Rd: 9, Rs1: 9, Imm: -1},
		{Op: isa.OpBne, Rs1: 9, Rs2: 0, Imm: -isa.WordSize},
	}, tail...)
}

// countTops are the shapes the rows run on: a four-way SMP, one MISP
// processor, and a lone runner, whose runUops skips without peers.
var countTops = []Topology{{0, 0, 0, 0}, {3}, {0}}

// countRows are TestWaveCountedSpin's cases. peers marks a row that needs
// sequencer 0 to act on its peers: it does not run on the lone runner, and
// also requires a wave exit to take part of a skip back.
var countRows = []struct {
	name  string
	draws int
	peers bool
	draw  func(top Topology, rng *rand.Rand) spinDraw
}{
	// Every sequencer counts to its own threshold and resets, so the skip
	// must stop short of the iteration whose blt falls through; the pause
	// lands at a drawn cycle.
	{"threshold", 10, false, func(top Topology, rng *rand.Rand) spinDraw {
		th := uint64(3 + rng.IntN(400))
		return spinDraw{what: fmt.Sprintf("threshold %d", th), code: countLoop(isa.OpBlt), init: func(s *Sequencer) {
			s.Clock = uint64(s.ID)
			countOn(s, th+uint64(7*s.ID))
		}, pause: uint64(2000 + rng.IntN(40000))}
	}},
	// The branch on the counter is bne against r3: it flips for the one
	// iteration that meets r3, which a skip must not jump over.
	{"equality-flip", 10, false, func(top Topology, rng *rand.Rand) spinDraw {
		th := uint64(3 + rng.IntN(400))
		return spinDraw{what: fmt.Sprintf("meets %d", th), code: countLoop(isa.OpBne), init: func(s *Sequencer) {
			s.Clock = uint64(s.ID)
			countOn(s, th+uint64(5*s.ID))
		}, pause: uint64(2000 + rng.IntN(40000))}
	}},
	// The counters never reach their thresholds, so each skip runs to its
	// clock bound, and a pause — or, every other draw, a cycle limit —
	// lands inside the span a skip would cover. A capture at an earlier
	// pause, also inside one, is resumed to the later.
	{"pause-and-limit", 10, false, func(top Topology, rng *rand.Rand) spinDraw {
		d := spinDraw{code: countLoop(isa.OpBlt), init: func(s *Sequencer) {
			s.Clock = uint64(s.ID)
			countOn(s, 1<<40)
		}}
		if rng.IntN(2) == 0 {
			d.limit = uint64(500 + rng.IntN(30000))
			d.what = fmt.Sprintf("limit %d", d.limit)
			return d
		}
		d.resume = uint64(500 + rng.IntN(30000))
		d.pause = d.resume + uint64(1+rng.IntN(30000))
		d.what = fmt.Sprintf("pause %d resumed from %d", d.pause, d.resume)
		return d
	}},
	// Sequencer 0 warms its TLB for the watched word's page, then stores
	// into the word at a drawn cycle, by which time each peer has skipped
	// far past the store: the store's snoop meets the peers' loads of the
	// word, and the exit must take back the part of each skip ordered
	// after the store — the counter word included — before the peers see
	// the release.
	{"peer-store", 10, true, func(top Topology, rng *rand.Rand) spinDraw {
		lead := 1 + rng.IntN(1500)
		code, init := countPeers(append([]isa.Instr{{Op: isa.OpStd, Rd: 13, Rs1: 11}}, countDelay(lead,
			isa.Instr{Op: isa.OpStd, Rd: 13, Rs1: 14},
			isa.Instr{Op: isa.OpAddi, Rd: 10, Rs1: 10, Imm: 3},
			isa.Instr{Op: isa.OpJmp, Imm: -isa.WordSize})...), 1<<40, func(s *Sequencer) {
			s.Regs[11], s.Regs[13], s.Regs[14] = waveWarm, 0x0123456789ABCDEF, waveShared
		})
		return spinDraw{what: fmt.Sprintf("lead %d", lead), code: code, init: init, pause: uint64(2*lead + 30 + 1 + rng.IntN(3000))}
	}},
	// Sequencer 0 loads a peer's counter word at a drawn cycle while the
	// peer's skip is outstanding — ahead of the order when a first load
	// warmed its TLB for the page, at its ordered commit when it did not —
	// and must read what the legacy loop reads there.
	{"peer-load", 16, true, func(top Topology, rng *rand.Rand) spinDraw {
		lead, warm := 1+rng.IntN(1500), rng.IntN(2) == 0
		var code []isa.Instr
		if warm {
			code = append(code, isa.Instr{Op: isa.OpLdd, Rd: 13, Rs1: 11})
		}
		peer := 1 + rng.IntN(top.Seqs()-1)
		code, init := countPeers(append(code, countDelay(lead,
			isa.Instr{Op: isa.OpLdd, Rd: 12, Rs1: 14},
			isa.Instr{Op: isa.OpAddi, Rd: 10, Rs1: 10, Imm: 3},
			isa.Instr{Op: isa.OpJmp, Imm: -isa.WordSize})...), 1<<40, func(s *Sequencer) {
			s.Regs[11], s.Regs[14] = uopData+8, countWord(peer)
		})
		return spinDraw{what: fmt.Sprintf("lead %d warm %v peer %d", lead, warm, peer), code: code, init: init,
			pause: uint64(2*lead + 40 + rng.IntN(3000))}
	}},
}

func TestWaveCountedSpin(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 0x636f756e74))
	for _, row := range countRows {
		t.Run(row.name, func(t *testing.T) {
			for _, top := range countTops {
				if row.peers && top.Seqs() == 1 {
					continue
				}
				var counts, takeBack uint64
				for range row.draws {
					o := spinEquiv(t, top, row.draw(top, rng))
					counts, takeBack = counts+o.counts, takeBack+o.takeBack
				}
				if counts == 0 {
					t.Fatalf("%v: the fast loop never made a counted skip", top)
				}
				if row.peers && takeBack == 0 {
					t.Fatalf("%v: %d counted skips, nothing taken back: the peer never acted inside a skipped span", top, counts)
				}
			}
		})
	}
}

// countProbeRows are the probe's op table: one micro-op put into
// countLoop's spin path (after the pause, with r8 and r11 free and r4 the
// counter's value) and whether the probe still accepts the loop as a
// counted spin.
var countProbeRows = []struct {
	in     isa.Instr
	accept bool
}{
	{isa.Instr{Op: isa.OpNop}, true},
	{isa.Instr{Op: isa.OpAddi, Rd: 4, Rs1: 4, Imm: 0}, true},
	{isa.Instr{Op: isa.OpAddi, Rd: 8, Rs1: 4, Imm: 5}, false}, // a second value that moves
	{isa.Instr{Op: isa.OpAdd, Rd: 4, Rs1: 4, Rs2: 0}, true},
	{isa.Instr{Op: isa.OpAdd, Rd: 4, Rs1: 0, Rs2: 4}, true},
	{isa.Instr{Op: isa.OpSub, Rd: 4, Rs1: 4, Rs2: 0}, true},
	{isa.Instr{Op: isa.OpSub, Rd: 4, Rs1: 0, Rs2: 4}, false},
	{isa.Instr{Op: isa.OpAdd, Rd: 4, Rs1: 4, Rs2: 4}, false},
	{isa.Instr{Op: isa.OpMul, Rd: 8, Rs1: 4, Rs2: 0}, false},
	{isa.Instr{Op: isa.OpXori, Rd: 8, Rs1: 4, Imm: 1}, false},
	{isa.Instr{Op: isa.OpSlt, Rd: 8, Rs1: 4, Rs2: 3}, false},
	{isa.Instr{Op: isa.OpItof, Rd: 1, Rs1: 4}, false},
	{isa.Instr{Op: isa.OpLdd, Rd: 8, Rs1: 4}, false}, // an address from the counter
	{isa.Instr{Op: isa.OpLdw, Rd: 8, Rs1: 1}, false}, // part of the word
	{isa.Instr{Op: isa.OpFld, Rd: 1, Rs1: 1}, false}, // the word into an FReg
	{isa.Instr{Op: isa.OpLdd, Rd: 8, Rs1: 1}, false}, // the word, still live at the pause
	{isa.Instr{Op: isa.OpLdd, Rd: 8, Rs1: 2}, true},  // another word
	{isa.Instr{Op: isa.OpRdtsc, Rd: 8}, false},
	{isa.Instr{Op: isa.OpMul, Rd: 8, Rs1: 3, Rs2: 3}, true},
	{isa.Instr{Op: isa.OpFadd, Rd: 1, Rs1: 1, Rs2: 1}, false}, // an FReg that moves
	{isa.Instr{Op: isa.OpFmov, Rd: 1, Rs1: 2}, true},
	{isa.Instr{Op: isa.OpLdih, Rd: 4, Imm: 0}, false},
	{isa.Instr{Op: isa.OpLdih, Rd: 8, Imm: 0}, true},
	{isa.Instr{Op: isa.OpSeqid, Rd: 8, Imm: 2}, true},
	{isa.Instr{Op: isa.OpGettp, Rd: 8}, true},
	{isa.Instr{Op: isa.OpBeq, Rs1: 4, Rs2: 3, Imm: isa.WordSize}, true},
	{isa.Instr{Op: isa.OpBgeu, Rs1: 3, Rs2: 4, Imm: isa.WordSize}, true},
	{isa.Instr{Op: isa.OpBge, Rs1: 4, Rs2: 4, Imm: isa.WordSize}, false},
	{isa.Instr{Op: isa.OpBltu, Rs1: 4, Rs2: 0, Imm: isa.WordSize}, true},
}

// TestCountProbeOps: a lone runner on countLoop with one more micro-op in
// its spin path makes counted skips exactly when the probe accepts that
// micro-op, and stays where the legacy loop has it either way.
func TestCountProbeOps(t *testing.T) {
	for _, row := range countProbeRows {
		code := countLoop(isa.OpBlt)
		code = append(code[:9:9], append([]isa.Instr{row.in}, code[9:]...)...)
		code[1].Imm += isa.WordSize
		code[9+1].Imm -= isa.WordSize
		d := spinDraw{what: isa.Disasm(row.in, 0), code: code, init: func(s *Sequencer) {
			countOn(s, 1<<40)
			s.FRegs[1], s.FRegs[2] = 1.5, 2.5
		}, pause: 20000}
		if o := spinEquiv(t, Topology{0}, d); (o.counts != 0) != row.accept {
			t.Errorf("%s: %d counted skips, want accepted %v", d.what, o.counts, row.accept)
		}
	}
}

// TestCountBound: the branch bound holds v's side of b — below, equal or
// above, signed or unsigned — for exactly the steps it returns, and no
// step more.
func TestCountBound(t *testing.T) {
	vals := []uint64{0, 1, 2, 7, 1<<63 - 2, 1<<63 - 1, 1 << 63, 1<<63 + 1, ^uint64(1), ^uint64(0)}
	steps := []uint64{1, 2, 3, ^uint64(0), ^uint64(2), 1 << 62, 1 << 63}
	rank := func(v uint64, signed bool) uint64 {
		if signed {
			return v ^ 1<<63
		}
		return v
	}
	side := func(v, b uint64, signed bool) int {
		v, b = rank(v, signed), rank(b, signed)
		switch {
		case v < b:
			return -1
		case v > b:
			return 1
		}
		return 0
	}
	for _, v := range vals {
		for _, b := range vals {
			for _, d := range steps {
				for _, signed := range []bool{false, true} {
					k, s0 := countBound(v, b, d, signed), side(v, b, signed)
					x, wrapped := v, false
					for j := uint64(1); j <= min(k, 64)+1; j++ {
						nx := x + d
						wrapped = wrapped || (rank(nx, signed) < rank(x, signed)) != (int64(d) < 0)
						x = nx
						if same := !wrapped && side(x, b, signed) == s0; same != (j <= k) {
							t.Fatalf("v %#x b %#x d %#x signed %v: bound %d, step %d on the same side %v", v, b, d, signed, k, j, same)
						}
					}
				}
			}
		}
	}
}
