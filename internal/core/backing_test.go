package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"misp/internal/asm"
	"misp/internal/isa"
	"misp/internal/mem"
	"misp/internal/obs"
	"misp/internal/snap/wire"
)

// Unbacked-frame equivalence: mem.Phys backs only the frames a run has
// reached, and every place a frame number enters — the allocator, a
// page walk, a paging-off access, a bit flip, a restored TLB — must back
// it before an unchecked accessor can touch it. Each row drives one of
// those entries past the initial backing on both loops and holds the
// fast loop to the legacy one at two pauses: registers, PC, clocks,
// retirements, TLB counters, the event stream, the snapshot image, the
// backing, and a digest of all of PhysMem. The image at the first pause
// is also restored and run to the second, which must leave the image an
// uninterrupted run leaves.

// backingCfg is 32 MiB of memory behind one OMS: the initial backing is
// an eighth of it.
func backingCfg() Config {
	cfg := testCfg(0)
	cfg.TraceEvents = true
	return cfg
}

// backingRow is one program, run from its entry on the OMS at ring 0
// (until its first trap). setup runs after loading, before the run;
// atPause, if set, runs on both machines at the first pause, before
// anything is compared.
type backingRow struct {
	name           string
	src            string
	setup          func(t *testing.T, m *Machine, b *BareOS, oms *Sequencer)
	atPause        func(m *Machine)
	pause1, end    uint64
	check1, check2 func(t *testing.T, oms *Sequencer) // the row's own progress at each pause
}

// backingState is what the loops must agree on at a pause.
type backingState struct {
	seqs   []backingSeq
	events []obs.Event
	image  []byte
	digest [sha256.Size]byte
	backed uint64
	space  []byte // BareOS's address space, for a restore to resume under
}

type backingSeq struct {
	Regs, FRegs [isa.NumRegs]uint64
	PC, Clock   uint64
	C           SeqCounters
	TLB         [4]uint64
}

// physDigest hashes every nonzero frame of the configured memory with
// its number; a frame beyond the backing reads as zero, and reading
// does not back it.
func physDigest(p *mem.Phys) [sha256.Size]byte {
	h := sha256.New()
	var num [4]byte
	for f := uint64(0); f < p.Backed()/mem.PageSize; f++ {
		b := p.Bytes(f*mem.PageSize, mem.PageSize)
		if !slices.ContainsFunc(b, func(c byte) bool { return c != 0 }) {
			continue
		}
		binary.LittleEndian.PutUint32(num[:], uint32(f))
		h.Write(num[:])
		h.Write(b)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

func backingCapture(t *testing.T, m *Machine) backingState {
	t.Helper()
	w := wire.NewEncoder(1 << 20)
	if err := m.EncodeSnapshot(w, m.Phys.Resident()); err != nil {
		t.Fatal(err)
	}
	st := backingState{
		events: slices.Clone(m.Obs.Bus.Events()),
		image:  w.Bytes(),
		digest: physDigest(m.Phys),
		backed: m.Phys.Backed(),
	}
	for _, s := range m.Seqs {
		q := backingSeq{Regs: s.Regs, PC: s.PC, Clock: s.Clock, C: s.C, TLB: tlbStats(s)}
		for i, f := range s.FRegs {
			q.FRegs[i] = math.Float64bits(f)
		}
		st.seqs = append(st.seqs, q)
	}
	return st
}

// pauseTo runs m to the pause at cycle and requires it to get there.
func pauseTo(t *testing.T, m *Machine, cycle uint64) {
	t.Helper()
	m.SetPause(cycle)
	if err := m.Run(); !errors.Is(err, ErrPaused) {
		t.Fatalf("run to cycle %d: %v, want ErrPaused", cycle, err)
	}
}

// backingRun runs row on one loop to both pauses.
func backingRun(t *testing.T, row backingRow, legacy bool) (first, second backingState) {
	t.Helper()
	m, err := New(backingCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	m.Oracle = legacy
	prog := asm.MustAssemble(row.src)
	b, err := LoadBare(m, prog)
	if err != nil {
		t.Fatal(err)
	}
	// A trap returns to ring 3, so the text is resident before the run.
	if _, err := b.Space.Prefault(prog.TextBase, prog.TextSize()); err != nil {
		t.Fatal(err)
	}
	oms := m.Procs[0].OMS()
	oms.Ring = isa.Ring0
	if row.setup != nil {
		row.setup(t, m, b, oms)
	}
	pauseTo(t, m, row.pause1)
	if b.Err != nil {
		t.Fatal(b.Err)
	}
	if row.atPause != nil {
		row.atPause(m)
	}
	row.check1(t, oms)
	first = backingCapture(t, m)
	w := wire.NewEncoder(1 << 12)
	mem.SnapshotSpace(w, b.Space, m.Phys, func(*mem.VMA) {})
	first.space = w.Bytes()
	pauseTo(t, m, row.end)
	row.check2(t, oms)
	return first, backingCapture(t, m)
}

func (st backingState) diff(o backingState) string {
	for i := range st.seqs {
		if st.seqs[i] != o.seqs[i] {
			return fmt.Sprintf("sequencer %d:\nlegacy %+v\nfast   %+v", i, st.seqs[i], o.seqs[i])
		}
	}
	switch {
	case !slices.Equal(st.events, o.events):
		return fmt.Sprintf("event streams differ: %d / %d events", len(st.events), len(o.events))
	case !bytes.Equal(st.image, o.image):
		return "snapshot images differ"
	case st.digest != o.digest:
		return "physical memory differs"
	case st.backed != o.backed:
		return fmt.Sprintf("backing %d bytes (legacy), %d (fast)", st.backed, o.backed)
	}
	return ""
}

// Addresses the rows use.
const (
	backingHeap = asm.HeapBase
	backingSpan = 4 << 20 // the virtual span one page table maps
)

// backingTouch is rows (a) and (e): load from 1025 fresh heap pages,
// the second page table's first, so the allocator hands out more than
// 1024 frames, none of them written; then load from one more page above
// them all — mapped by that load, never written — delay, and store to
// it and read it back. The order allocates both page tables early, so
// every written frame stays inside the initial backing.
const backingTouch = `
main:
    li  r9, 0
    li  r1, 0x08400000   ; the second page table's first page
    ldd r4, [r1]
    li  r1, 0x08000000
    li  r2, 1024
    li  r3, 4096
touch:
    ldd r4, [r1]
    add r1, r1, r3
    addi r2, r2, -1
    bne r2, r9, touch
    addi r1, r1, 4096    ; above them all
    ldd r5, [r1+8]
    li  r6, 400000
delay:
    addi r6, r6, -1
    bne r6, r9, delay
    li  r7, 0x5A5A
    std r7, [r1+8]
    ldd r8, [r1+8]
park:
    pause
    j park
`

// backingRewrite is row (b): r1 is a window onto the page table that
// maps r3, at r3's entry; r2 a PTE naming a frame no allocator handed
// out. Store the PTE, drop the stale translation, and load and store
// through it.
const backingRewrite = `
main:
    ldd r4, [r3+16]
    stw r2, [r1]
    invlpg r3
    ldd r5, [r3+16]
    li  r6, 0x77
    std r6, [r3+16]
    ldd r8, [r3+16]
park:
    pause
    j park
`

// backingPhysical is row (c), run with paging off from the text's
// physical address: r1 is the last frame's last word.
const backingPhysical = `
main:
    ldd r5, [r1]
    li  r6, 0x33
    std r6, [r1]
    ldd r8, [r1]
park:
    pause
    j park
`

// backingCR3 is row (b)'s second case: point CR3 at r1, a frame no
// allocator handed out. Every walk now reads an all-zero directory, so
// the next fetch faults, and BareOS — whose page table still maps the
// page — retries it for ever.
const backingCR3 = `
main:
    movtcr cr3, r1
    nop
park:
    pause
    j park
`

// backingSled is row (c)'s second case, run with paging off: jump to
// r2, a frame nothing has written, and execute its zero words — nops —
// one after another.
const backingSled = `
main:
    jr r2
`

// lastFrame is the physical address of the configured memory's last
// frame.
func lastFrame(m *Machine) uint64 { return m.Phys.Size() - mem.PageSize }

// pagingOff is a row's setup that turns paging off and starts the OMS at
// the physical address of its entry, then sets registers.
func pagingOff(regs func(m *Machine, oms *Sequencer)) func(*testing.T, *Machine, *BareOS, *Sequencer) {
	return func(t *testing.T, m *Machine, b *BareOS, oms *Sequencer) {
		pa, err := b.Space.Translate(oms.PC, false)
		if err != nil {
			t.Fatal(err)
		}
		oms.CRs[isa.CR0], oms.PC = 0, pa
		regs(m, oms)
	}
}

func wantReg(t *testing.T, s *Sequencer, r int, want uint64) {
	t.Helper()
	if s.Regs[r] != want {
		t.Fatalf("r%d = %#x, want %#x", r, s.Regs[r], want)
	}
}

var backingRows = []backingRow{
	{
		name: "a/allocate-past-backing", src: backingTouch,
		pause1: 20_000_000, end: 40_000_000,
		check1: func(t *testing.T, s *Sequencer) { wantReg(t, s, 8, 0x5A5A) },
		check2: func(t *testing.T, s *Sequencer) { wantReg(t, s, 8, 0x5A5A) },
	},
	{
		name: "b/pte-names-unallocated-frame", src: backingRewrite,
		setup: func(t *testing.T, m *Machine, b *BareOS, oms *Sequencer) {
			target := uint64(backingHeap)
			if _, err := b.Space.Prefault(target, mem.PageSize); err != nil {
				t.Fatal(err)
			}
			pde := m.Phys.ReadU32(b.Space.PT.RootPA() + (target>>22)*4)
			window := uint64(backingHeap + backingSpan)
			if err := b.Space.PT.Map(window, mem.PTEFrame(pde), mem.PTEWritable); err != nil {
				t.Fatal(err)
			}
			far := uint32(lastFrame(m)/mem.PageSize) - 2
			oms.Regs[1] = window + (target>>12&0x3FF)*4
			oms.Regs[2] = uint64(far)<<12 | uint64(mem.PTEPresent|mem.PTEWritable|mem.PTEUser)
			oms.Regs[3] = target
		},
		pause1: 200_000, end: 400_000,
		check1: func(t *testing.T, s *Sequencer) { wantReg(t, s, 5, 0); wantReg(t, s, 8, 0x77) },
		check2: func(t *testing.T, s *Sequencer) { wantReg(t, s, 8, 0x77) },
	},
	{
		name: "b/cr3-names-unallocated-frame", src: backingCR3,
		setup: func(t *testing.T, m *Machine, b *BareOS, oms *Sequencer) {
			oms.Regs[1] = lastFrame(m) - 4*mem.PageSize
		},
		pause1: 200_000, end: 400_000,
		check1: func(t *testing.T, s *Sequencer) {
			if s.CRs[isa.CR3] != s.Regs[1] || s.PC != asm.DefaultTextBase+isa.WordSize {
				t.Fatalf("cr3 %#x, pc %#x: want r1 and the nop after movtcr", s.CRs[isa.CR3], s.PC)
			}
		},
		check2: func(t *testing.T, s *Sequencer) {},
	},
	{
		name: "c/paging-off-last-frame", src: backingPhysical,
		setup:  pagingOff(func(m *Machine, oms *Sequencer) { oms.Regs[1] = m.Phys.Size() - 8 }),
		pause1: 200_000, end: 400_000,
		check1: func(t *testing.T, s *Sequencer) { wantReg(t, s, 5, 0); wantReg(t, s, 8, 0x33) },
		check2: func(t *testing.T, s *Sequencer) { wantReg(t, s, 8, 0x33) },
	},
	{
		name: "c/paging-off-fetch-never-written", src: backingSled,
		setup:  pagingOff(func(m *Machine, oms *Sequencer) { oms.Regs[2] = m.Phys.Size() / 2 }),
		pause1: 200_000, end: 400_000,
		check1: func(t *testing.T, s *Sequencer) {
			if s.PC <= s.Regs[2] {
				t.Fatalf("pc %#x: the sled at %#x never ran", s.PC, s.Regs[2])
			}
		},
		check2: func(t *testing.T, s *Sequencer) {},
	},
	{
		name: "d/flip-last-frame", src: backingPhysical,
		setup: func(t *testing.T, m *Machine, b *BareOS, oms *Sequencer) {
			oms.Regs[1] = backingHeap // paging on: an ordinary heap word
		},
		atPause: func(m *Machine) { m.Phys.FlipBit(lastFrame(m)+123, 4) },
		pause1:  200_000, end: 400_000,
		check1: func(t *testing.T, s *Sequencer) { wantReg(t, s, 8, 0x33) },
		check2: func(t *testing.T, s *Sequencer) { wantReg(t, s, 8, 0x33) },
	},
	{
		// Paused inside the delay: the TLB maps the page above the
		// allocated ones, which is still all-zero, so the image omits it.
		name: "e/restore-while-tlb-maps-zero-frame", src: backingTouch,
		pause1: 2_000_000, end: 40_000_000,
		check1: func(t *testing.T, s *Sequencer) {
			if s.Regs[6] == 0 || s.Regs[6] == 400000 {
				t.Fatalf("first pause outside the delay loop: r6 = %d", s.Regs[6])
			}
			wantReg(t, s, 8, 0)
		},
		check2: func(t *testing.T, s *Sequencer) { wantReg(t, s, 8, 0x5A5A) },
	},
}

// TestUnbackedFrameEquivalence runs every row on both loops, then
// resumes the fast loop's first-pause image on a fresh machine.
func TestUnbackedFrameEquivalence(t *testing.T) {
	for _, row := range backingRows {
		t.Run(row.name, func(t *testing.T) {
			want1, want2 := backingRun(t, row, true)
			got1, got2 := backingRun(t, row, false)
			if d := want1.diff(got1); d != "" {
				t.Fatalf("first pause: %s", d)
			}
			if d := want2.diff(got2); d != "" {
				t.Fatalf("second pause: %s", d)
			}
			if got2.backed <= 4<<20 {
				t.Fatalf("backing %d bytes: the row never grew it", got2.backed)
			}

			m, err := RestoreMachine(wire.NewDecoder(got1.image), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Release()
			space := mem.SnapshotSpace(wire.NewDecoder(got1.space), nil, m.Phys, func(*mem.VMA) {})
			m.SetOS(&BareOS{M: m, Space: space})
			pauseTo(t, m, row.end)
			row.check2(t, m.Procs[0].OMS())
			if d := got2.diff(backingCapture(t, m)); d != "" {
				t.Fatalf("restored at the first pause and resumed: %s", d)
			}
		})
	}
}

// TestRestoreBacksTranslations: a restored TLB entry or fetch cache
// that names a frame beyond the initial backing — one the image need not
// store — comes back backed, and one that names a frame outside memory
// is rejected instead of panicking at the first access.
func TestRestoreBacksTranslations(t *testing.T) {
	for _, c := range []struct {
		name    string
		edit    func(m *Machine, s *Sequencer)
		outside bool
	}{
		{"tlb", func(m *Machine, s *Sequencer) { s.TLB.Insert(backingHeap, uint32(lastFrame(m)/mem.PageSize), true) }, false},
		{"fetch", func(m *Machine, s *Sequencer) { s.fetchVPN, s.fetchBase = 1, lastFrame(m) }, false},
		{"tlb-outside", func(m *Machine, s *Sequencer) { s.TLB.Insert(backingHeap, uint32(m.Phys.Size()/mem.PageSize), true) }, true},
		{"fetch-outside", func(m *Machine, s *Sequencer) { s.fetchVPN, s.fetchBase = 1, m.Phys.Size() }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := New(backingCfg())
			if err != nil {
				t.Fatal(err)
			}
			defer m.Release()
			c.edit(m, m.Seqs[0])
			w := wire.NewEncoder(1 << 20)
			if err := m.EncodeSnapshot(w, m.Phys.Resident()); err != nil {
				t.Fatal(err)
			}
			r, err := RestoreMachine(wire.NewDecoder(w.Bytes()), nil)
			if c.outside {
				if err == nil {
					r.Release()
					t.Fatal("an image naming a frame outside memory restored")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer r.Release()
			if r.Phys.Backed() != r.Phys.Size() {
				t.Fatalf("restored backing %d bytes, want the whole %d", r.Phys.Backed(), r.Phys.Size())
			}
			if v := r.Phys.ReadU64(lastFrame(r)); v != 0 {
				t.Fatalf("the named frame reads %#x", v)
			}
		})
	}
}
