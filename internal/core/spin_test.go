package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"misp/internal/isa"
	"misp/internal/mem"
	"misp/internal/obs"
	"misp/internal/snap/wire"
)

// Directed tests for the spin fast-forward (superblock.go, invariant 5):
// runAhead retires the repeated iterations of a pause loop at once, and the
// machine must still be exactly where the legacy loop has it — when a
// peer's store releases the spin inside a skipped span, when the loop reads
// the clock, when an iteration flips a float register's sign, when a pause
// or a cycle limit lands inside a skipped span, and when a lone spinner
// waits for its timer on the runBatch path. Each row draws its cycles from
// a fixed seed and also checks that the fast loop skipped at all, so none
// of them passes by never reaching the rule it tests.

// spinDraw is one run of a row: the program, each sequencer's start, and
// where the run stops — at a pause, at a cycle limit, or at the first trap
// when it sets neither. With resume set (below pause) the fast loop is
// also captured there and resumed to the pause.
type spinDraw struct {
	what                 string
	code                 []isa.Instr
	init                 func(*Sequencer)
	pause, limit, resume uint64
}

// spinOutcome is what a draw compares between the loops, with the fast
// loop's host counts beside it.
type spinOutcome struct {
	seqs            []uopSeq // at the first trap, if one stopped the run
	trap, err       string
	digest          [sha256.Size]byte // the two operand pages
	events          []obs.Event
	image           []byte // the snapshot image, when the run paused
	skips, takeBack uint64
	counts          uint64 // counted-spin skips (invariant 6)
	flag            uint64 // the word at waveShared
}

// spinCapture is the machine's snapshot image.
func spinCapture(t *testing.T, m *Machine) []byte {
	t.Helper()
	w := wire.NewEncoder(1 << 20)
	if err := m.EncodeSnapshot(w, m.Phys.Resident()); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

func spinRun(t *testing.T, top Topology, legacy bool, d spinDraw, pause uint64) spinOutcome {
	t.Helper()
	cfg := uopConfig(top)
	cfg.TraceEvents = true
	if d.limit != 0 {
		cfg.MaxCycles = d.limit
	}
	m, rec := uopMachineCfg(t, cfg, legacy, d.code, d.init)
	defer m.Release()
	ft := &firstTrap{BareOS: rec.BareOS}
	m.SetOS(ft)
	if pause != 0 {
		m.SetPause(pause)
	}
	var o spinOutcome
	err := m.Run()
	switch {
	case errors.Is(err, ErrPaused):
		o.image = spinCapture(t, m)
	case err != nil:
		o.err = err.Error()
	}
	if o.seqs, o.trap = ft.seqs, ft.what; o.seqs == nil {
		o.seqs = uopSeqs(m)
	}
	data, rerr := rec.Space.ReadBytes(uopData, 2*mem.PageSize)
	if rerr != nil {
		t.Fatal(rerr)
	}
	o.digest = sha256.Sum256(data)
	o.flag = binary.LittleEndian.Uint64(data[mem.PageSize:])
	o.events = m.Obs.Bus.Events()
	o.skips, o.takeBack, o.counts = m.spinSkips, m.waveTakenBack, m.countSkips
	return o
}

// spinEquiv holds the fast loop to the legacy one on d — registers, PC,
// TP, clocks, retirements and TLB counters of every sequencer, the trap or
// error the run stopped on, the memory digest, the event stream and, at a
// pause, the whole snapshot image — and returns the fast run's outcome.
func spinEquiv(t *testing.T, top Topology, d spinDraw) spinOutcome {
	t.Helper()
	want, got := spinRun(t, top, true, d, d.pause), spinRun(t, top, false, d, d.pause)
	for i := range want.seqs {
		if want.seqs[i] != got.seqs[i] {
			t.Fatalf("%v %s: sequencer %d:\nlegacy %+v\nfast   %+v", top, d.what, i, want.seqs[i], got.seqs[i])
		}
	}
	switch {
	case want.trap != got.trap || want.err != got.err:
		t.Fatalf("%v %s: stopped on %q %q (legacy), %q %q (fast)", top, d.what, want.trap, want.err, got.trap, got.err)
	case want.digest != got.digest:
		t.Fatalf("%v %s: the operand pages differ", top, d.what)
	case !slices.Equal(want.events, got.events):
		t.Fatalf("%v %s: the event streams differ: %d / %d events", top, d.what, len(want.events), len(got.events))
	case !bytes.Equal(want.image, got.image):
		t.Fatalf("%v %s: the snapshot images at the pause differ", top, d.what)
	}
	if d.resume != 0 {
		// Captured inside a skipped span and resumed: the image at the
		// pause must be the one an uninterrupted run leaves.
		first := spinRun(t, top, false, d, d.resume)
		m, err := RestoreMachine(wire.NewDecoder(first.image), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Release()
		m.SetOS(&BareOS{M: m})
		m.SetPause(d.pause)
		if err := m.Run(); !errors.Is(err, ErrPaused) {
			t.Fatalf("%v %s: resumed from %d: %v, want ErrPaused", top, d.what, d.resume, err)
		}
		if !bytes.Equal(spinCapture(t, m), got.image) {
			t.Fatalf("%v %s: captured at %d and resumed differs from an uninterrupted run", top, d.what, d.resume)
		}
	}
	return got
}

// spinFlag is the loop on the flag at [r1]: spin while it still holds r5,
// then count in r6 for ever.
var spinFlag = []isa.Instr{
	{Op: isa.OpLdd, Rd: 4, Rs1: 1},
	{Op: isa.OpBne, Rs1: 4, Rs2: 5, Imm: 3 * isa.WordSize},
	{Op: isa.OpPause},
	{Op: isa.OpJmp, Imm: -3 * isa.WordSize},
	{Op: isa.OpAddi, Rd: 6, Rs1: 6, Imm: 1},
	{Op: isa.OpXori, Rd: 7, Rs1: 6, Imm: 0x55},
	{Op: isa.OpJmp, Imm: -2 * isa.WordSize},
}

// spinReleased is the value sequencer 0 stores to release the flag.
const spinReleased = 0x0123456789ABCDEF

// spinOnFlag starts a sequencer on spinFlag with the flag unset.
func spinOnFlag(s *Sequencer) {
	s.Clock = uint64(s.ID)
	s.Regs[1], s.Regs[5] = waveShared, uopPattern(waveShared)
}

// spinRows are TestWaveSpinFastForward's cases: each draws one run on a
// topology. release marks a row where sequencer 0 releases the flag: the
// release must have committed in every draw, and a wave exit must take
// part of a skip back.
var spinRows = []struct {
	name    string
	draws   int
	release bool
	draw    func(top Topology, rng *rand.Rand) spinDraw
}{
	// The peers spin on the shared word — a TLB hit, so the load runs
	// ahead and the iteration is a fixed point — and sequencer 0 stores
	// into it at a drawn cycle, after warming its TLB so the wave can place
	// the store. By then each peer's run has skipped far past the store's
	// position, so the store's snoop ends the wave and the exit must take
	// back the part of the skip ordered after it; after the release the
	// peers count.
	{"flag-release", 12, true, func(top Topology, rng *rand.Rand) spinDraw {
		lead, after := 3+rng.IntN(300), rng.IntN(200)
		code := make([]isa.Instr, wavePeerSlot, wavePeerSlot+len(spinFlag))
		copy(code, append([]isa.Instr{{Op: isa.OpStd, Rd: 13, Rs1: 11}}, countDelay(lead,
			isa.Instr{Op: isa.OpStd, Rd: 13, Rs1: 14},
			isa.Instr{Op: isa.OpAddi, Rd: 10, Rs1: 10, Imm: 3},
			isa.Instr{Op: isa.OpJmp, Imm: -isa.WordSize})...))
		base := waveInit(uopCode + wavePeerSlot*isa.WordSize)
		// The warming store costs a walk and the countdown two cycles a
		// pass: on all three shapes a pause from cycle 2·lead+51 on finds
		// the release committed.
		return spinDraw{what: fmt.Sprintf("lead %d", lead), code: append(code, spinFlag...), init: func(s *Sequencer) {
			base(s)
			s.Regs[0] = 0 // countDelay counts r9 down to r0
			s.Regs[1], s.Regs[5] = waveShared, uopPattern(waveShared)
			s.Regs[11], s.Regs[13], s.Regs[14] = waveWarm, spinReleased, waveShared
		}, pause: uint64(2*lead + 51 + after)}
	}},
	// Every sequencer reads the clock, leaves for a bare pause loop once it
	// has passed its drawn deadline r5, and overwrites the reading before
	// the first loop's pause. Before the deadline every pause sees the same
	// registers, yet the span is no fixed point: the reading steers the
	// branch. The second loop is one, and is skipped.
	{"clock-read", 8, false, func(top Topology, rng *rand.Rand) spinDraw {
		code := []isa.Instr{
			{Op: isa.OpRdtsc, Rd: 4},
			{Op: isa.OpBgeu, Rs1: 4, Rs2: 5, Imm: 4 * isa.WordSize},
			{Op: isa.OpLdi, Rd: 4},
			{Op: isa.OpPause},
			{Op: isa.OpJmp, Imm: -4 * isa.WordSize},
			{Op: isa.OpPause},
			{Op: isa.OpJmp, Imm: -isa.WordSize},
		}
		deadline := uint64(50 + rng.IntN(1500))
		return spinDraw{what: fmt.Sprintf("deadline %d", deadline), code: code, init: func(s *Sequencer) {
			s.Clock = uint64(s.ID)
			s.Regs[4], s.Regs[5] = 0, deadline+uint64(13*s.ID)
		}, pause: deadline + uint64(200+rng.IntN(400))}
	}},
	// Sequencer 0's loop negates f1, so its consecutive pauses see +0 and
	// -0 in turn — equal under ==, different bits. The peers' loop leaves
	// its registers alone while f3 holds a NaN, which == never matches: a
	// fixed point the bit compare must still find.
	{"signed-zero", 8, false, func(top Topology, rng *rand.Rand) spinDraw {
		code := make([]isa.Instr, wavePeerSlot, wavePeerSlot+3)
		copy(code, []isa.Instr{
			{Op: isa.OpFneg, Rd: 1, Rs1: 1},
			{Op: isa.OpPause},
			{Op: isa.OpJmp, Imm: -2 * isa.WordSize},
		})
		code = append(code,
			isa.Instr{Op: isa.OpFmov, Rd: 2, Rs1: 2},
			isa.Instr{Op: isa.OpPause},
			isa.Instr{Op: isa.OpJmp, Imm: -2 * isa.WordSize})
		base := waveInit(uopCode + wavePeerSlot*isa.WordSize)
		return spinDraw{what: "flip", code: code, init: func(s *Sequencer) {
			base(s)
			s.FRegs[1] = 0
			if s.ID != 0 {
				s.FRegs[3] = math.NaN()
			}
		}, pause: uint64(100 + rng.IntN(2000))}
	}},
	// Every sequencer spins on a flag nobody sets, so each skips to its
	// bound, and a pause — or, every other draw, a cycle limit — lands
	// inside the span a skip would cover. A capture at an earlier pause,
	// also inside one, is resumed to the later.
	{"pause-and-limit", 12, false, func(top Topology, rng *rand.Rand) spinDraw {
		d := spinDraw{code: spinFlag, init: spinOnFlag}
		if rng.IntN(2) == 0 {
			d.limit = uint64(100 + rng.IntN(3000))
			d.what = fmt.Sprintf("limit %d", d.limit)
			return d
		}
		d.resume = uint64(100 + rng.IntN(3000))
		d.pause = d.resume + uint64(1+rng.IntN(3000))
		d.what = fmt.Sprintf("pause %d resumed from %d", d.pause, d.resume)
		return d
	}},
	// Sequencer 0 alone runs — its peers idle — and spins on the flag, so
	// runRound hands it to runBatch, whose runUops skips up to the batch's
	// threshold: here the drawn timer deadline, and the timer interrupt
	// must find it exactly where the legacy loop does.
	{"lone-timer", 12, false, func(top Topology, rng *rand.Rand) spinDraw {
		deadline := uint64(30 + rng.IntN(5000))
		return spinDraw{what: fmt.Sprintf("timer %d", deadline), code: spinFlag, init: func(s *Sequencer) {
			s.Regs[1], s.Regs[5] = waveShared, uopPattern(waveShared)
			if s.ID == 0 {
				s.TimerDeadline = deadline
			} else {
				s.State = StateIdle
			}
		}}
	}},
}

func TestWaveSpinFastForward(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0x7370696e))
	for _, row := range spinRows {
		t.Run(row.name, func(t *testing.T) {
			for _, top := range waveTops {
				var skips, takeBack uint64
				for range row.draws {
					d := row.draw(top, rng)
					o := spinEquiv(t, top, d)
					skips, takeBack = skips+o.skips, takeBack+o.takeBack
					if row.release && o.flag != spinReleased {
						t.Fatalf("%v %s: the flag holds %#x at the pause: the release never committed", top, d.what, o.flag)
					}
				}
				if skips == 0 {
					t.Fatalf("%v: the fast loop never skipped", top)
				}
				if row.release && takeBack == 0 {
					t.Fatalf("%v: %d skips, nothing taken back: the release never landed in a skipped span", top, skips)
				}
			}
		})
	}
}

// TestSpinHostCounters: the fixed-point skips and the counted-spin skips
// are published in the host section — nonzero on a run that spins that
// way, and, like every host metric, in no dump and no snapshot, so the
// fast loop's simulation metrics and image still equal the legacy loop's.
func TestSpinHostCounters(t *testing.T) {
	for _, row := range []struct {
		skips, instrs string
		top           Topology
		code          []isa.Instr
		init          func(*Sequencer)
	}{
		{obs.MSBSpinSkips, obs.MSBSpinInstrs, Topology{7}, spinFlag, spinOnFlag},
		{obs.MSBCountSkips, obs.MSBCountInstrs, Topology{3}, countLoop(isa.OpBlt), func(s *Sequencer) { countOn(s, 1<<40) }},
	} {
		var dumps [2]string
		var images [2][]byte
		for k, legacy := range []bool{true, false} {
			m, _ := uopMachine(t, row.top, legacy, row.code, row.init)
			m.SetPause(1 << 16)
			if err := m.Run(); !errors.Is(err, ErrPaused) {
				t.Fatalf("%s legacy=%v: %v, want ErrPaused", row.skips, legacy, err)
			}
			reg := m.Obs.Metrics
			skips, instrs := reg.CounterValue(row.skips), reg.CounterValue(row.instrs)
			if legacy && (skips != 0 || instrs != 0) {
				t.Fatalf("the legacy loop skipped: %d %s, %d instrs", skips, row.skips, instrs)
			}
			if !legacy && (skips == 0 || instrs == 0 || instrs > m.Steps) {
				t.Fatalf("fast loop: %d %s retired %d of %d instrs", skips, row.skips, instrs, m.Steps)
			}
			dumps[k], images[k] = reg.String(), spinCapture(t, m)
			m.Release()
		}
		for _, name := range []string{row.skips, row.instrs} {
			if !obs.IsHost(name) {
				t.Errorf("%s is not a host metric", name)
			}
			for k := range dumps {
				if strings.Contains(dumps[k], name) || bytes.Contains(images[k], []byte(name)) {
					t.Errorf("%s is in a dump or a snapshot", name)
				}
			}
		}
		if dumps[0] != dumps[1] {
			t.Errorf("%s: the metrics dumps differ:\nlegacy %s\nfast   %s", row.skips, dumps[0], dumps[1])
		}
		if !bytes.Equal(images[0], images[1]) {
			t.Errorf("%s: the snapshot images differ", row.skips)
		}
	}
}
