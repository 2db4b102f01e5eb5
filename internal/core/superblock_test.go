package core

import (
	"bytes"
	"errors"
	"testing"

	"misp/internal/asm"
	"misp/internal/isa"
	"misp/internal/snap/wire"
)

// Superblock invalidation difftests: compiled pages are host-derived
// state keyed on the code page's store generation, so every way a
// page can change out from under the compiled path — self-modifying
// code, a peer sequencer's store, TLB/CR3 maintenance, snapshot
// restore — must put execution back through fetch/recompile without
// any machine-visible difference from the legacy loop. checkEquiv
// (loopequiv_test.go) runs both loops and demands bit-identical
// clocks, counters, and event streams.

// TestSuperblockSelfModifyingCode copies a routine into the writable
// heap (text is W^X in bare mode; jumps are PC-relative so the copy
// runs in place), jumps to it, and has the routine patch an
// instruction *ahead of its own PC in the page it is executing*: the
// store lands mid-block, and the patched instruction must be the one
// that retires.
func TestSuperblockSelfModifyingCode(t *testing.T) {
	const src = `
main:
    la  r2, template
    la  r8, tend
    li  r3, 0x08000000
copy:
    ldd r4, [r2]
    std r4, [r3]
    addi r2, r2, 8
    addi r3, r3, 8
    bne r2, r8, copy
    la  r6, patch
    ldd r7, [r6]
    la  r6, t3
    la  r2, template
    sub r6, r6, r2
    li  r5, 0x08000000
    add r6, r6, r5
    jr  r5
template:
    std r7, [r6]
    li  r9, 0
    li  r9, 1
t3: li  r1, 11
    li  r0, 1
    syscall
tend:
patch:
    li  r1, 77
`
	b, _ := run(t, testCfg(0), asm.MustAssemble(src))
	if b.ExitCode != 77 {
		t.Fatalf("exit = %d, want 77 (stale compiled page served the pre-patch instruction?)", b.ExitCode)
	}
	checkEquiv(t, testCfg(0), src)
}

// TestSuperblockCrossSequencerStore patches the spin loop a *peer*
// sequencer is executing: the shred spins in a compiled
// one-instruction superblock (the copied self-jump in the heap) when
// the OMS overwrites that very word. The shred's next commit must see
// the patch.
func TestSuperblockCrossSequencerStore(t *testing.T) {
	const src = `
main:
    la  r1, proxy_handler
    setyield r1, 0
    la  r2, stpl
    la  r8, stend
    li  r3, 0x08000000
copy:
    ldd r4, [r2]
    std r4, [r3]
    addi r2, r2, 8
    addi r3, r3, 8
    bne r2, r8, copy
    li  r1, 1
    li  r2, 0x08000000
    li  r3, 0x70020000
    signal r1, r2, r3
    li  r10, 200
delay:
    addi r10, r10, -1
    li  r9, 0
    bne r10, r9, delay
    la  r6, patch
    ldd r4, [r6]
    la  r6, s1
    la  r2, stpl
    sub r6, r6, r2
    li  r5, 0x08000000
    add r6, r6, r5
    std r4, [r6]
    la  r4, done
wait:
    ldd r5, [r4]
    li  r9, 0
    beq r5, r9, wait
    mov r1, r5
    li  r0, 1
    syscall
proxy_handler:
    proxyexec r1
    sret
stpl:
s1: j   s1
    li  r8, 42
    la  r4, done
    std r8, [r4]
park:
    pause
    j   park
stend:
patch:
    li  r6, 0
.data
done: .u64 0
`
	b, _ := run(t, testCfg(1), asm.MustAssemble(src))
	if b.ExitCode != 42 {
		t.Fatalf("exit = %d, want 42 (peer store missed the compiled spin loop?)", b.ExitCode)
	}
	checkEquiv(t, testCfg(1), src)
}

// pauseMidRun runs prog on cfg's loop until a mid-run pause point,
// returning the paused machine.
func pauseMidRun(t *testing.T, oracle bool, prog *asm.Program) *Machine {
	t.Helper()
	m, err := New(testCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	m.Oracle = oracle
	if _, err := LoadBare(m, prog); err != nil {
		t.Fatal(err)
	}
	m.SetPause(2000)
	if err := m.Run(); !errors.Is(err, ErrPaused) {
		t.Fatalf("run = %v, want ErrPaused", err)
	}
	return m
}

var sbLoopProg = asm.MustAssemble(`
main:
    li  r10, 100000
loop:
    addi r10, r10, -1
    li  r9, 0
    bne r10, r9, loop
    li  r0, 1
    li  r1, 0
    syscall
`)

// TestSuperblockTLBMaintenanceGates: INVLPG on the executing page,
// TLBFLUSH, and a CR3 write must each close the compiled-path entry
// gate (the fetch window), forcing the next fetch back through the
// walk and the generation re-check.
func TestSuperblockTLBMaintenanceGates(t *testing.T) {
	ops := []struct {
		name string
		do   func(m *Machine, s *Sequencer)
	}{
		{"invlpg", func(m *Machine, s *Sequencer) {
			s.Regs[1] = s.PC
			if f := m.execInstr(s, isa.Instr{Op: isa.OpInvlpg, Rs1: 1}); f != nil {
				t.Fatalf("invlpg faulted: %+v", f)
			}
		}},
		{"tlbflush", func(m *Machine, s *Sequencer) {
			if f := m.execInstr(s, isa.Instr{Op: isa.OpTlbflush}); f != nil {
				t.Fatalf("tlbflush faulted: %+v", f)
			}
		}},
		{"cr3-write", func(m *Machine, s *Sequencer) {
			root := s.CRs[isa.CR3]
			s.CRs[isa.CR3] = root // same root: even a no-op rewrite must flush
			m.NotifyCRWrite(s)
		}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			m := pauseMidRun(t, false, sbLoopProg)
			s := m.Procs[0].OMS()
			s.Ring = isa.Ring0 // TLB maintenance is privileged
			if s.winGen == nil || s.sb == nil || *s.winGen != s.sb.gen {
				t.Fatal("precondition: paused sequencer has no valid fetch window")
			}
			op.do(m, s)
			if s.winGen != nil {
				t.Fatalf("%s left the fetch window open: the compiled path could run stale translations", op.name)
			}
		})
	}
}

// TestSuperblockSnapshotExcludesCompiledState: compiled pages and the
// host counters that track them are process-local derived state. The
// fast run publishes the counters to the host metric section, yet a
// fast run and a legacy-loop run paused at the same point must encode
// byte-identical snapshots, and a restore must come back with an empty
// compiled-page cache (pages rebuild on demand).
func TestSuperblockSnapshotExcludesCompiledState(t *testing.T) {
	mFast := pauseMidRun(t, false, sbLoopProg)
	mLegacy := pauseMidRun(t, true, sbLoopProg)

	if len(mFast.sbCache) == 0 || mFast.sbBuilds == 0 || mFast.sbRuns == 0 {
		t.Fatalf("precondition: fast run never used the compiled plane: cached=%d builds=%d runs=%d",
			len(mFast.sbCache), mFast.sbBuilds, mFast.sbRuns)
	}
	if len(mLegacy.sbCache) != 0 {
		t.Fatal("legacy run compiled pages")
	}
	if err := mFast.FinalizeMetrics(); err != nil {
		t.Fatal(err)
	}
	if err := mLegacy.FinalizeMetrics(); err != nil {
		t.Fatal(err)
	}
	reg := mFast.Obs.Metrics
	if got := reg.CounterValue("host.superblock.builds"); got != mFast.sbBuilds {
		t.Fatalf("host.superblock.builds = %d, want %d", got, mFast.sbBuilds)
	}
	if got := reg.CounterValue("host.superblock.block_runs"); got != mFast.sbRuns {
		t.Fatalf("host.superblock.block_runs = %d, want %d", got, mFast.sbRuns)
	}

	wF := wire.NewEncoder(1 << 20)
	if err := mFast.EncodeSnapshot(wF, mFast.Phys.Resident()); err != nil {
		t.Fatal(err)
	}
	wL := wire.NewEncoder(1 << 20)
	if err := mLegacy.EncodeSnapshot(wL, mLegacy.Phys.Resident()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wF.Bytes(), wL.Bytes()) {
		t.Fatal("fast-loop snapshot differs from legacy-loop snapshot: host state leaked into the image")
	}

	m2, err := RestoreMachine(wire.NewDecoder(wF.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.sbCache) != 0 {
		t.Fatal("restore resurrected compiled pages")
	}
	for _, s := range m2.Seqs {
		if s.sb != nil {
			t.Fatalf("%s restored with an attached compiled page", s.Name())
		}
	}
}
